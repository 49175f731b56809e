package sim

import (
	"testing"
	"time"

	"taskbench/internal/core"
	"taskbench/internal/metg"
	"taskbench/internal/trace"
)

// stencilWorkload is the paper's baseline configuration scaled down in
// height to keep simulations fast (METG is a steady-state property).
func stencilWorkload() Workload {
	return Workload{Dependence: core.Stencil1D, Steps: 20, WidthPerNode: 32}
}

func simMETG(t *testing.T, w Workload, m Machine, profileName string) time.Duration {
	t.Helper()
	p, err := ProfileByName(profileName)
	if err != nil {
		t.Fatal(err)
	}
	run := metg.Runner(w.Runner(m, p))
	got, _, kind := metg.Search(run, 1<<31, m.PeakFlops(), 0, 0.5, 2)
	if !kind.Reached() {
		t.Fatalf("METG(50%%) not found for %s", profileName)
	}
	return got
}

// TestSimulateRespectsLowerBounds holds the simulator to trace's
// scheduling lower bounds: no profile may finish an app sooner than its
// critical path, or its work spread over every core of the machine.
// AppBounds assumes one fixed time per task, so only the balanced
// compute kernel is checked, at its full-speed time per task — which a
// profile's overheads and utilization cap can only lengthen.
func TestSimulateRespectsLowerBounds(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		m := Cori(nodes)
		m.CoresPerNode = 8
		for _, dt := range core.DependenceTypes() {
			w := Workload{Dependence: dt, Radix: 5, Steps: 20, WidthPerNode: 8}
			for _, iters := range []int64{1 << 6, 1 << 12, 1 << 18} {
				app := w.App(nodes, iters)
				perTask := time.Duration(float64(iters) * 128 / m.FlopsPerCore * float64(time.Second))
				lower := trace.AppBounds(app, perTask, m.TotalCores()).Lower
				for _, p := range Profiles() {
					if got := Simulate(app, m, p).Elapsed; got < lower {
						t.Errorf("%s, %s, %d nodes, %d iterations: makespan %v below the lower bound %v",
							p.Name, dt, nodes, iters, got, lower)
					}
				}
			}
		}
	}
}

func TestMachineModels(t *testing.T) {
	c := Cori(4)
	if c.TotalCores() != 128 {
		t.Errorf("Cori(4) cores = %d, want 128", c.TotalCores())
	}
	if pf := c.PeakFlops(); pf < 5e12 || pf > 5.1e12 {
		t.Errorf("Cori(4) peak = %v, want ≈ 5.04e12", pf)
	}
	if Cori(1).RemoteLatency() != c.NetLatency {
		t.Error("1-node machine should have no hop latency")
	}
	if Cori(256).RemoteLatency() <= Cori(2).RemoteLatency() {
		t.Error("remote latency should grow with node count")
	}
	d := PizDaint(1)
	if d.GPUsPerNode != 1 || d.GPUFlops <= 0 {
		t.Errorf("PizDaint GPU model missing: %+v", d)
	}
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) < 18 {
		t.Fatalf("only %d profiles, want at least the paper's 18 lines", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
	}
	for _, want := range []string{"mpi p2p", "mpi bulk sync", "charm++", "spark", "dask",
		"realm", "regent", "parsec dtd", "parsec ptg", "parsec shard", "swift/t",
		"tensorflow", "x10", "chapel", "chapel distrib", "starpu", "openmp task",
		"ompss", "mpi+openmp"} {
		if !seen[want] {
			t.Errorf("missing profile %q", want)
		}
	}
	if _, err := ProfileByName("bogus"); err == nil {
		t.Error("ProfileByName accepted bogus name")
	}
}

func TestSimulateLargeTasksReachPeak(t *testing.T) {
	// With huge tasks every system approaches peak efficiency —
	// Figure 6's plateau.
	m := Cori(1)
	w := stencilWorkload()
	for _, name := range []string{"mpi p2p", "charm++", "realm", "spark"} {
		p, _ := ProfileByName(name)
		st := Simulate(w.App(1, 1<<31), m, p)
		eff := st.Efficiency(m.PeakFlops(), 0)
		if eff < 0.5 {
			t.Errorf("%s: efficiency %v at huge tasks, want > 0.5", name, eff)
		}
		if eff > 1.01 {
			t.Errorf("%s: efficiency %v exceeds peak", name, eff)
		}
	}
}

func TestSimulateTinyTasksCollapse(t *testing.T) {
	m := Cori(1)
	w := stencilWorkload()
	p, _ := ProfileByName("mpi p2p")
	st := Simulate(w.App(1, 1), m, p)
	if eff := st.Efficiency(m.PeakFlops(), 0); eff > 0.5 {
		t.Errorf("1-iteration tasks reached %v efficiency, expected collapse", eff)
	}
}

// TestMETGSingleNodeBands checks the paper's headline finding: on one
// node, METG(50%) spans orders of magnitude across systems, with MPI
// in the microsecond band and Spark in the 100ms+ band (Figure 9a).
func TestMETGSingleNodeBands(t *testing.T) {
	m := Cori(1)
	w := stencilWorkload()

	mpi := simMETG(t, w, m, "mpi p2p")
	if mpi < 500*time.Nanosecond || mpi > 50*time.Microsecond {
		t.Errorf("mpi p2p METG = %v, want single-digit µs band", mpi)
	}

	spark := simMETG(t, w, m, "spark")
	if spark < 50*time.Millisecond {
		t.Errorf("spark METG = %v, want ≥ 50ms", spark)
	}

	// ≥ 4 orders of magnitude spread (paper: > 5 across all systems).
	if ratio := float64(spark) / float64(mpi); ratio < 1e4 {
		t.Errorf("spark/mpi METG ratio = %.0f, want ≥ 1e4", ratio)
	}

	// Realm and Charm++ land between MPI and the data-analytics
	// systems.
	realm := simMETG(t, w, m, "realm")
	if realm < mpi/4 || realm > spark {
		t.Errorf("realm METG = %v out of expected band (mpi=%v, spark=%v)", realm, mpi, spark)
	}
}

// TestMETGRisesWithNodeCount checks §5.4: systems with the smallest
// 1-node METG see roughly an order of magnitude higher METG at scale
// because communication latency requires larger tasks.
func TestMETGRisesWithNodeCount(t *testing.T) {
	w := stencilWorkload()
	one := simMETG(t, w, Cori(1), "mpi p2p")
	big := simMETG(t, w, Cori(64), "mpi p2p")
	if big < 2*one {
		t.Errorf("METG at 64 nodes (%v) not clearly above 1 node (%v)", big, one)
	}
}

// TestCentralizedSchedulerScalesBadly checks §5.4: Spark's centralized
// controller makes METG rise immediately with node count.
func TestCentralizedSchedulerScalesBadly(t *testing.T) {
	w := stencilWorkload()
	one := simMETG(t, w, Cori(1), "spark")
	four := simMETG(t, w, Cori(4), "spark")
	if four < 2*one {
		t.Errorf("spark METG: 4 nodes %v vs 1 node %v, want ≥ 2× growth", four, one)
	}
}

// TestDTDChecksVsShard checks §5.4: DTD's dynamic checks grow with
// scale while the sharded variant stays flat.
func TestDTDChecksVsShard(t *testing.T) {
	w := stencilWorkload()
	dtd1 := simMETG(t, w, Cori(1), "parsec dtd")
	dtd16 := simMETG(t, w, Cori(16), "parsec dtd")
	shard1 := simMETG(t, w, Cori(1), "parsec shard")
	shard16 := simMETG(t, w, Cori(16), "parsec shard")
	growthDTD := float64(dtd16) / float64(dtd1)
	growthShard := float64(shard16) / float64(shard1)
	if growthDTD < 1.5*growthShard {
		t.Errorf("DTD METG growth %.1fx not clearly above shard growth %.1fx",
			growthDTD, growthShard)
	}
}

// TestDependenciesRaiseMETG checks §5.5 (Figure 10): more dependencies
// per task raise METG substantially for inline-overhead systems.
func TestDependenciesRaiseMETG(t *testing.T) {
	m := Cori(1)
	zero := simMETG(t, Workload{Dependence: core.Nearest, Radix: 0, Steps: 20, WidthPerNode: 32}, m, "mpi p2p")
	five := simMETG(t, Workload{Dependence: core.Nearest, Radix: 5, Steps: 20, WidthPerNode: 32}, m, "mpi p2p")
	if five < 2*zero {
		t.Errorf("METG with 5 deps (%v) not clearly above 0 deps (%v)", five, zero)
	}
}

// TestAsyncHidesCommunication checks §5.6 (Figure 11): with multiple
// graphs and non-trivial payloads, asynchronous systems achieve higher
// efficiency than phase-based MPI at equal task granularity.
func TestAsyncHidesCommunication(t *testing.T) {
	m := Cori(8)
	w := Workload{Dependence: core.Spread, Radix: 5, Steps: 12, WidthPerNode: 32,
		Graphs: 4, OutputBytes: 4096}
	iters := int64(30000) // medium granularity where overlap matters

	sync, _ := ProfileByName("mpi p2p")
	async, _ := ProfileByName("charm++")
	effSync := Simulate(w.App(m.Nodes, iters), m, sync).Efficiency(m.PeakFlops(), 0)
	effAsync := Simulate(w.App(m.Nodes, iters), m, async).Efficiency(m.PeakFlops(), 0)
	if effAsync <= effSync {
		t.Errorf("async efficiency %.3f not above sync %.3f under communication load",
			effAsync, effSync)
	}
}

// TestStealingMitigatesImbalance checks §5.7 (Figure 12): under
// uniform [0,1) imbalance at large granularity, a work-stealing
// runtime beats phase-based MPI, whose efficiency is capped by the
// slowest rank.
func TestStealingMitigatesImbalance(t *testing.T) {
	m := Cori(1)
	w := Workload{Dependence: core.Nearest, Radix: 5, Steps: 16, WidthPerNode: 32,
		Graphs: 4, Imbalance: 1.0, Seed: 11}
	iters := int64(1 << 18) // large tasks: imbalance dominates overhead

	mpi, _ := ProfileByName("mpi bulk sync")
	steal, _ := ProfileByName("chapel distrib")
	effMPI := Simulate(w.App(1, iters), m, mpi).Efficiency(m.PeakFlops(), 0)
	effSteal := Simulate(w.App(1, iters), m, steal).Efficiency(m.PeakFlops(), 0)
	if effSteal <= effMPI {
		t.Errorf("stealing efficiency %.3f not above bulk-sync %.3f under imbalance",
			effSteal, effMPI)
	}
	// The paper notes imbalance puts an upper bound on MPI efficiency:
	// with duration ~ U[0,1), the slowest of 32 ranks per step forces
	// efficiency towards E[mean]/E[max] ≈ 0.5.
	if effMPI > 0.75 {
		t.Errorf("bulk-sync efficiency %.3f implausibly high under full imbalance", effMPI)
	}
}

// TestDedicatedCoresCapEfficiency checks §5.1: systems that reserve
// cores cannot reach 100% of machine peak.
func TestDedicatedCoresCapEfficiency(t *testing.T) {
	m := Cori(1)
	w := stencilWorkload()
	p, _ := ProfileByName("realm") // 1 dedicated core
	st := Simulate(w.App(1, 1<<24), m, p)
	eff := st.Efficiency(m.PeakFlops(), 0)
	want := float64(31) / 32
	if eff > want+0.02 {
		t.Errorf("realm efficiency %.3f exceeds dedicated-core cap %.3f", eff, want)
	}
}

// TestGPUOffloadShapes checks Figure 13: the GPU beats the CPU at
// large problems, loses at small ones, and overdecomposition (w4)
// reaches higher peak but decays faster.
func TestGPUOffloadShapes(t *testing.T) {
	base := GPUConfig{Machine: PizDaint(1), Steps: 50, Width: 12, CopyBytesPerTask: 1 << 16}

	w1 := base
	w1.RanksPerGPU = 1
	w4 := base
	w4.RanksPerGPU = 4

	bigIters := int64(1 << 26)
	smallIters := int64(1 << 8)

	cpuBig := SimulateGPUCPUBaseline(base, bigIters).FlopsPerSecond()
	gpuBig := SimulateGPU(w1, bigIters).FlopsPerSecond()
	gpu4Big := SimulateGPU(w4, bigIters).FlopsPerSecond()
	if gpuBig <= cpuBig {
		t.Errorf("GPU (%.2e) not above CPU (%.2e) at large problems", gpuBig, cpuBig)
	}
	if gpu4Big <= gpuBig {
		t.Errorf("w4 (%.2e) not above w1 (%.2e) at large problems", gpu4Big, gpuBig)
	}

	cpuSmall := SimulateGPUCPUBaseline(base, smallIters).FlopsPerSecond()
	gpuSmall := SimulateGPU(w1, smallIters).FlopsPerSecond()
	if gpuSmall >= cpuSmall {
		t.Errorf("GPU (%.2e) not below CPU (%.2e) at small problems", gpuSmall, cpuSmall)
	}

	// w4 drops more steeply: its small/large ratio is worse than w1's.
	gpu4Small := SimulateGPU(w4, smallIters).FlopsPerSecond()
	if gpu4Small/gpu4Big >= gpuSmall/gpuBig {
		t.Error("w4 does not decay faster than w1 at small problems")
	}
}

// TestSimulateDeterministic: identical inputs give identical makespans.
func TestSimulateDeterministic(t *testing.T) {
	m := Cori(2)
	w := Workload{Dependence: core.Spread, Radix: 5, Steps: 10, WidthPerNode: 32,
		Graphs: 2, Imbalance: 0.5, Seed: 3}
	p, _ := ProfileByName("charm++")
	a := Simulate(w.App(2, 5000), m, p)
	b := Simulate(w.App(2, 5000), m, p)
	if a.Elapsed != b.Elapsed {
		t.Errorf("simulation not deterministic: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

// TestWorkloadApp checks the workload generator shapes.
func TestWorkloadApp(t *testing.T) {
	w := Workload{Dependence: core.Nearest, Radix: 3, Steps: 5, WidthPerNode: 32, Graphs: 4}
	app := w.App(4, 100)
	if len(app.Graphs) != 4 {
		t.Fatalf("graphs = %d, want 4", len(app.Graphs))
	}
	if app.Graphs[0].MaxWidth != 128 {
		t.Errorf("width = %d, want 128", app.Graphs[0].MaxWidth)
	}
	imb := Workload{Dependence: core.Trivial, Steps: 2, WidthPerNode: 1, Imbalance: 0.5}
	g := imb.App(1, 10).Graphs[0]
	if g.Kernel.ImbalanceFactor != 0.5 {
		t.Errorf("imbalance not applied: %+v", g.Kernel)
	}
}

// TestPersistentImbalanceNeedsStealing covers the paper's future-work
// extension (§5.7): with per-column (persistent) imbalance, pinned
// execution — even asynchronous — is bound by the slowest column, so
// work stealing helps far more than under per-task imbalance.
func TestPersistentImbalanceNeedsStealing(t *testing.T) {
	m := Cori(1)
	iters := int64(1 << 18)
	base := Workload{Dependence: core.Nearest, Radix: 5, Steps: 16, WidthPerNode: 32,
		Graphs: 4, Imbalance: 1.0, Seed: 11}
	persistent := base
	persistent.Persistent = true

	charm, _ := ProfileByName("charm++")        // async, pinned columns
	steal, _ := ProfileByName("chapel distrib") // async + stealing

	effCharmNP := Simulate(base.App(1, iters), m, charm).Efficiency(m.PeakFlops(), 0)
	effCharmP := Simulate(persistent.App(1, iters), m, charm).Efficiency(m.PeakFlops(), 0)
	effStealP := Simulate(persistent.App(1, iters), m, steal).Efficiency(m.PeakFlops(), 0)

	// Persistent imbalance hurts a pinned runtime more than per-task
	// imbalance (no averaging across timesteps).
	if effCharmP >= effCharmNP {
		t.Errorf("pinned async: persistent eff %.3f not below non-persistent %.3f",
			effCharmP, effCharmNP)
	}
	// Stealing recovers most of the loss.
	if effStealP <= effCharmP+0.1 {
		t.Errorf("stealing eff %.3f not clearly above pinned %.3f under persistent imbalance",
			effStealP, effCharmP)
	}
}

// TestStrongScalingProjection ties §4's worked example together: the
// node count at which a problem stops strong-scaling is predicted by
// where its shrinking task granularity crosses the METG curve.
func TestStrongScalingProjection(t *testing.T) {
	w := stencilWorkload()
	metgAt := map[int]time.Duration{}
	for nodes := 1; nodes <= 8; nodes *= 2 {
		metgAt[nodes] = simMETG(t, w, Cori(nodes), "mpi p2p")
	}
	lookup := func(nodes int) time.Duration { return metgAt[nodes] }

	// A workload 4× above METG at 1 node scales a little, not forever.
	limit := metg.StrongScalingLimit(4*metgAt[1], lookup, 8)
	if limit < 1 || limit >= 8 {
		t.Errorf("projected strong-scaling limit = %d, want within [1, 8)", limit)
	}
	// A workload 1000× above METG scales past the whole sweep.
	if got := metg.StrongScalingLimit(1000*metgAt[1], lookup, 8); got != 8 {
		t.Errorf("large-problem limit = %d, want 8", got)
	}
}
