package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/redundancy"
)

// Problem size shared by every workload: CG on the 5-point Laplacian of
// a grid×grid mesh, steps iterations per job. At 500 steps a run holds
// twice the jobs it would at 1000, which steadies its median.
const (
	grid  = 64
	steps = 500
)

// cg-recover's checkpoint schedule: a generation every ckptInterval
// steps, every stableEvery-th of them also on the stable tier.
const (
	ckptInterval = 20
	stableEvery  = 4
	dataShards   = 4
	parityShards = 2
)

// workload is one set of inputs the benchmark runs as whole jobs;
// BENCHMARK.json and README.md give the reason for each.
type workload struct {
	name    string
	ranks   int     // N, virtual ranks
	degree  float64 // r
	socket  bool    // procmpi.Local instead of the simulated transport
	recover bool    // checkpointing, peer tier and injected failures
}

// cg-recover runs unreplicated (r = 1), so every sphere is one rank: at
// r = 2 a few jobs in a thousand wedge in their final checkpoint drain
// (see README.md, "Known defects").
var workloads = []workload{
	{name: "cg-partial", ranks: 8, degree: 1.5},
	{name: "cg-recover", ranks: 8, degree: 1, recover: true},
	{name: "cg-socket", ranks: 2, degree: 1, socket: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs are what a seed generates for one invocation; every job of the
// invocation runs on them.
type inputs struct {
	seed   int64
	events []killEvent // cg-recover only
	kills  []core.StepKill
}

func (w workload) inputs(seed int64) (inputs, error) {
	in := inputs{seed: seed}
	if !w.recover {
		return in, nil
	}
	rm, err := redundancy.NewRankMap(w.ranks, w.degree)
	if err != nil {
		return in, err
	}
	spheres := make([][]int, rm.VirtualSize())
	for v := range spheres {
		if spheres[v], err = rm.Sphere(v); err != nil {
			return in, err
		}
	}
	in.events, in.kills = killSchedule(seed, spheres)
	return in, nil
}

// buildMatrix makes the job's system matrix: the Laplacian with a
// seeded diagonal shift in [0, 0.01) per row. It stays SPD with nearly
// the Laplacian's conditioning, so the solve converges without the
// recurrence residual underflowing, and every seed costs the same.
func buildMatrix(seed int64) (*apps.CSRMatrix, error) {
	m, err := apps.Laplacian2D(grid)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for row := 0; row < m.N; row++ {
		for k := m.RowPtr[row]; k < m.RowPtr[row+1]; k++ {
			if m.ColIdx[k] == row {
				m.Values[k] += 0.01 * rng.Float64()
			}
		}
	}
	return m, nil
}

// killEvent kills whole replica spheres at one application step.
type killEvent struct {
	step    int
	spheres []int
}

// killSchedule draws cg-recover's failures from seed: three events at
// distinct steps, killing every replica of 1, 1 and 3 spheres. A single
// sphere loss stays within the erasure code's parity and recovers in
// place from a degraded read; the last event loses more spheres than
// parity covers and forces the full restart from the stable tier. The
// seed picks the spheres and the checkpoint window of each event; the
// phase inside the window is fixed, so every seed loses the same amount
// of work and job times stay comparable across seeds.
//
// The middle event kills one sphere, not parityShards of them: losing
// two spheres at once breaks some jobs after the in-place recovery
// (see README.md, "Known defects").
func killSchedule(seed int64, spheres [][]int) ([]killEvent, []core.StepKill) {
	rng := rand.New(rand.NewSource(seed))
	const phase = 13 // steps past a peer generation
	stable := ckptInterval * stableEvery
	events := []killEvent{
		{step: ckptInterval*(2+rng.Intn(5)) + phase, spheres: pick(rng, len(spheres), 1)},
		{step: ckptInterval*(9+rng.Intn(5)) + phase, spheres: pick(rng, len(spheres), 1)},
		{step: stable*(4+rng.Intn(2)) + 50, spheres: pick(rng, len(spheres), parityShards+1)},
	}
	var kills []core.StepKill
	for _, ev := range events {
		for _, v := range ev.spheres {
			for _, p := range spheres[v] {
				kills = append(kills, core.StepKill{Step: ev.step, Rank: p})
			}
		}
	}
	return events, kills
}

// pick returns k distinct values of [0, n), ascending.
func pick(rng *rand.Rand, n, k int) []int {
	out := rng.Perm(n)[:k]
	sort.Ints(out)
	return out
}

// config is the core.Config of one job, without its Transport, Storage
// and Obs, which the job runner supplies.
func (w workload) config(in inputs) core.Config {
	cfg := core.Config{
		Ranks:          w.ranks,
		Degree:         w.degree,
		AttemptTimeout: time.Minute,
	}
	if w.recover {
		cfg.StepInterval = ckptInterval
		cfg.AsyncCheckpoint = true
		cfg.PeerDataShards = dataShards
		cfg.PeerParityShards = parityShards
		cfg.StableEvery = stableEvery
		cfg.PartialRestart = true
		cfg.StepKills = in.kills
		cfg.MaxRestarts = 2
	}
	return cfg
}
