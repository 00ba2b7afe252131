package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/procmpi"
	"repro/internal/redundancy"
	"repro/internal/simmpi"
)

// checksumTol bounds |checksum - n| / n for a solve of the n-unknown
// system whose exact solution is all-ones.
const checksumTol = 1e-9

// reference is the checksum every job must reproduce bit for bit: an
// unreplicated, failure-free simulated solve of the same matrix at the
// same virtual size. CG reduces over a fixed tree, so every degree,
// transport and recovery path yields the identical iterate.
func reference(w workload, in inputs) (float64, error) {
	m, err := buildMatrix(in.seed)
	if err != nil {
		return 0, err
	}
	res, err := core.Run(core.Config{Ranks: w.ranks, Degree: 1, AttemptTimeout: time.Minute},
		func() apps.App { return &apps.CG{Matrix: m, Iterations: steps} })
	if err != nil {
		return 0, fmt.Errorf("reference solve: %w", err)
	}
	sum, err := checksum(res)
	if err != nil {
		return 0, fmt.Errorf("reference solve: %w", err)
	}
	if n := float64(m.N); math.Abs(sum-n) > checksumTol*n {
		return 0, fmt.Errorf("reference checksum %v is not within %g of %v", sum, checksumTol, n)
	}
	return sum, nil
}

// checksum returns the CG checksum of a completed job, which every
// finished replica must agree on bit for bit.
func checksum(res core.Result) (float64, error) {
	if !res.Completed {
		return 0, errors.New("job did not complete")
	}
	if len(res.CompletedApps) == 0 {
		return 0, errors.New("no completed application")
	}
	var sum float64
	for i, a := range res.CompletedApps {
		cg, ok := unwrapApp(a).(*apps.CG)
		if !ok {
			return 0, fmt.Errorf("completed application is %T", a)
		}
		if i == 0 {
			sum = cg.Checksum
		} else if math.Float64bits(cg.Checksum) != math.Float64bits(sum) {
			return 0, fmt.Errorf("replicas disagree: checksum %v vs %v", cg.Checksum, sum)
		}
	}
	return sum, nil
}

// jobResult is what one job measured.
type jobResult struct {
	err        error // nil when the job completed with the reference checksum
	jobS       float64
	matrixS    float64
	transportS float64
	rssPeak    float64 // MB
	res        core.Result
	gc         goDelta
	spans      [numSpanKinds]kindTotals
	spanCount  int
	stable     int64      // bytes written to the stable tier (traced)
	recovery   [3]float64 // drain, revive, resume seconds (traced)
	tr         *tracer
}

// newTransport builds the transport a job of w runs on. A socket world
// gets reg directly: procmpi.Local ignores the mpi.Options that core
// hands the factory.
func newTransport(w workload, n int, reg *obs.Registry, opts ...mpi.Option) (mpi.Transport, error) {
	if w.socket {
		l, err := procmpi.NewLocal(n, procmpi.LocalConfig{Obs: reg})
		if err != nil {
			return nil, err
		}
		return l, nil
	}
	world, err := simmpi.NewWorld(n, opts...)
	if err != nil {
		return nil, err
	}
	return world, nil
}

// setupsPerJob is how many set-ups a --trace 0 run times before each of
// its jobs; setup_s is the median over the run. Spread over the run
// like the jobs, they see the same host conditions the jobs see.
const setupsPerJob = 5

// timeSetups times n times the set-up a job pays before its first
// step: building the matrix and one Config.Transport call at the
// workload's physical size, the socket rendezvous included. Like a job,
// each set-up starts from a collected heap, and its transport is torn
// down before the next.
func timeSetups(w workload, in inputs, n int) ([]float64, error) {
	rm, err := redundancy.NewRankMap(w.ranks, w.degree)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := buildMatrix(in.seed); err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		tr, err := newTransport(w, rm.PhysicalSize(), reg, mpi.WithObs(reg))
		out = append(out, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
		if l, ok := tr.(*procmpi.Local); ok {
			l.Close()
		}
	}
	return out, nil
}

// runJob runs one whole job through core.Run and checks its result.
func runJob(w workload, in inputs, ref float64, id int, traced bool) (j jobResult) {
	runtime.GC()
	before := readGo()
	rss := startRSS()
	defer func() { j.rssPeak = rss.stop() }()

	t0 := time.Now()
	m, err := buildMatrix(in.seed)
	j.matrixS = time.Since(t0).Seconds()
	if err != nil {
		j.err = err
		return j
	}

	cfg := w.config(in)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	var stable *tracedStorage
	var rec *obs.Recorder
	if traced {
		rm, rerr := redundancy.NewRankMap(w.ranks, w.degree)
		if rerr != nil {
			j.err = rerr
			return j
		}
		j.tr = newTracer(id, rm.PhysicalSize())
		if w.recover {
			stable = &tracedStorage{inner: checkpoint.NewMemStorage(), t: j.tr}
			cfg.Storage = stable
			rec = obs.NewRecorder(1<<14, true)
			cfg.Recorder = rec
		}
	}

	var (
		mu      sync.Mutex
		locals  []*procmpi.Local
		setupNs int64
	)
	cfg.Transport = func(n int, opts ...mpi.Option) (mpi.Transport, error) {
		start := time.Now()
		tr, err := newTransport(w, n, reg, opts...)
		d := time.Since(start)
		mu.Lock()
		setupNs += int64(d)
		if l, ok := tr.(*procmpi.Local); ok {
			locals = append(locals, l)
		}
		mu.Unlock()
		if err != nil || j.tr == nil {
			return tr, err
		}
		end := j.tr.now()
		j.tr.shared.leaf(spTransport, end-int64(d), end)
		return tracedTransport{Transport: tr, t: j.tr}, nil
	}
	factory := func() apps.App {
		cg := &apps.CG{Matrix: m, Iterations: steps}
		if j.tr != nil {
			return &tracedApp{inner: cg, t: j.tr}
		}
		return cg
	}

	var jobSpan int32
	var jobLane *lane
	if j.tr != nil {
		jobLane = j.tr.newLane()
		jobSpan = jobLane.begin(spJob, j.tr.now())
	}
	start := time.Now()
	res, err := core.Run(cfg, factory)
	j.jobS = time.Since(start).Seconds()
	if j.tr != nil {
		jobLane.end(jobSpan, j.tr.now())
	}
	// mpi.Transport has no Close: release every socket world the
	// factory built, attempts included.
	mu.Lock()
	for _, l := range locals {
		l.Close()
	}
	j.transportS = time.Duration(setupNs).Seconds()
	mu.Unlock()
	j.gc = readGo().sub(before)
	j.res = res

	if err == nil {
		var sum float64
		sum, err = checksum(res)
		if err == nil && math.Float64bits(sum) != math.Float64bits(ref) {
			err = fmt.Errorf("checksum %v differs from the reference %v", sum, ref)
		}
	}
	j.err = err
	// Keep nothing a job built: retained matrices and apps would grow the
	// live heap job by job, and with it the GC's heap goal, so later jobs
	// would run fewer collections and time faster than earlier ones.
	j.res.CompletedApps = nil
	if j.tr != nil {
		j.spans = j.tr.summary()
		j.spanCount = j.tr.spanCount()
		if stable != nil {
			j.stable = stable.bytes.Load()
		}
		j.recovery = recoverySpans(rec)
	}
	return j
}

// recoverySpans sums the drain, revive and resume phases of the
// recovery spans the runtime's flight recorder holds, in seconds.
func recoverySpans(rec *obs.Recorder) [3]float64 {
	var out [3]float64
	for _, r := range rec.Records() {
		if r.Ev != obs.EvEnd {
			continue
		}
		switch r.Kind {
		case "recovery_drain":
			out[0] += float64(r.Arg) / 1e9
		case "recovery_revive":
			out[1] += float64(r.Arg) / 1e9
		case "recovery_resume":
			out[2] += float64(r.Arg) / 1e9
		}
	}
	return out
}

// exactCounts are the counts a traced job must reproduce exactly: the
// wrappers may add time, never change what the layers do. On cg-socket
// redundancy_physical_sends_total counts the endpoint sends. The hub's
// proc_frames_tx_total is left out: it is not exact, since untraced
// jobs of one seed differ by a frame now and then.
var exactCounts = []string{
	"simmpi_sends_total",
	"simmpi_copies_elided_total",
	"redundancy_physical_sends_total",
	"peerstore_bytes_replicated_total",
	"checkpoint_committed_total",
}

// countsDiffer names the exact counts on which two jobs disagree.
func countsDiffer(a, b obs.Snapshot) []string {
	var out []string
	for _, name := range exactCounts {
		if x, y := a.Counter(name), b.Counter(name); x != y {
			out = append(out, fmt.Sprintf("%s %d vs %d", name, x, y))
		}
	}
	return out
}

// goDelta is the Go runtime's work during one job.
type goDelta struct {
	allocBytes, allocs, gcCycles, pauseNs uint64
}

func readGo() goDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goDelta{ms.TotalAlloc, ms.Mallocs, uint64(ms.NumGC), ms.PauseTotalNs}
}

func (g goDelta) sub(o goDelta) goDelta {
	return goDelta{g.allocBytes - o.allocBytes, g.allocs - o.allocs, g.gcCycles - o.gcCycles, g.pauseNs - o.pauseNs}
}

// rssSampler polls the process's resident set size while a job runs.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{}), peak: rssBytes()}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				if b := rssBytes(); b > s.peak {
					s.peak = b
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	<-s.done
	if b := rssBytes(); b > s.peak {
		s.peak = b
	}
	return float64(s.peak) / (1 << 20)
}

var pageSize = int64(os.Getpagesize())

// rssBytes reads the resident set size from /proc/self/statm; zero when
// it cannot.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * pageSize
}
