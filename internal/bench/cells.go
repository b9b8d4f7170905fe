package bench

// Cell is one table or ablation of the evaluation. Cells is the only list
// of them: hlbench prints its rows, the -json snapshot records the rows
// that carry a Key, and adding a study to both is adding one row.
type Cell struct {
	// Name is "table1".."table6" for the paper's tables — what hlbench
	// -table N selects — and "ablation_*" for the studies behind
	// hlbench -ablations.
	Name string
	// Key is the cell's key under "tables" in BENCH_*.json; "" keeps the
	// cell out of the snapshot.
	Key string
	// Run regenerates the cell. Only the tables follow the Scale; the
	// ablations run at fixed geometries of their own, so one snapshot
	// entry covers both scales.
	Run func(Scale) (*Report, error)
}

// fixed adapts an ablation, which takes no Scale, to Cell.Run.
func fixed(run func() (*Report, error)) func(Scale) (*Report, error) {
	return func(Scale) (*Report, error) { return run() }
}

// Cells lists every cell in the order hlbench prints them.
var Cells = []Cell{
	{Name: "table1", Run: func(Scale) (*Report, error) { return Table1(), nil }},
	{Name: "table2", Key: "table2", Run: Table2},
	{Name: "table3", Key: "table3", Run: Table3},
	{Name: "table4", Key: "table4", Run: Table4},
	{Name: "table5", Key: "table5", Run: Table5},
	{Name: "table6", Key: "table6", Run: Table6},
	{Name: "ablation_cache_policy", Run: fixed(AblationCachePolicy)},
	{Name: "ablation_copyout", Run: fixed(AblationCopyout)},
	{Name: "ablation_stp", Run: fixed(AblationSTP)},
	{Name: "ablation_block_range", Run: fixed(AblationBlockRange)},
	{Name: "ablation_fault_rate", Run: fixed(ablationFaultRate)},
	{Name: "ablation_crash_recovery", Run: fixed(ablationCrashRecovery)},
	{Name: "ablation_replication", Run: fixed(ablationReplication)},
	{Name: "ablation_disk_scaling", Key: "ablation_disk_scaling", Run: fixed(ablationDiskScaling)},
	{Name: "ablation_overload", Key: "ablation_overload", Run: fixed(ablationOverload)},
	{Name: "ablation_policy", Key: "ablation_policy", Run: fixed(ablationPolicy)},
	{Name: "ablation_reqtrace", Key: "ablation_reqtrace", Run: fixed(ablationReqtrace)},
}
