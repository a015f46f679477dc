// Fixture: plan-bypass — a renderer that looks its own cell up (not compiled).
pub fn fig_bad(spec: &ExperimentSpec, out: &mut dyn Write) {
    let exp = experiment_of(spec);
    let cell = CellCache::global().run(&exp, DesignKind::Jumanji, &NoopSink);
    draw(out, &cell);
}

// The clean renderer reads the cell its plan named.
pub fn fig_good(spec: &ExperimentSpec, cells: &CompletedCells, out: &mut dyn Write) {
    let cell = cells.run(0, DesignKind::Jumanji);
    draw(out, cell);
}
