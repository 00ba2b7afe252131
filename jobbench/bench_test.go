package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/redundancy"
	"repro/internal/simmpi"
)

func spheresOf(t *testing.T, w workload) [][]int {
	t.Helper()
	rm, err := redundancy.NewRankMap(w.ranks, w.degree)
	if err != nil {
		t.Fatal(err)
	}
	spheres := make([][]int, rm.VirtualSize())
	for v := range spheres {
		if spheres[v], err = rm.Sphere(v); err != nil {
			t.Fatal(err)
		}
	}
	return spheres
}

func TestKillScheduleDeterministicAndWholeSpheres(t *testing.T) {
	w, err := lookupWorkload("cg-recover")
	if err != nil {
		t.Fatal(err)
	}
	spheres := spheresOf(t, w)
	owner := make(map[int]int)
	for v, sphere := range spheres {
		for _, p := range sphere {
			owner[p] = v
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		events, kills := killSchedule(seed, spheres)
		events2, kills2 := killSchedule(seed, spheres)
		if !reflect.DeepEqual(events, events2) || !reflect.DeepEqual(kills, kills2) {
			t.Fatalf("seed %d: two draws differ", seed)
		}
		if len(events) < 3 {
			t.Fatalf("seed %d: %d events, want at least 3", seed, len(events))
		}
		if last := events[len(events)-1]; len(last.spheres) <= parityShards {
			t.Fatalf("seed %d: last event kills %d spheres, parity covers %d", seed, len(last.spheres), parityShards)
		}
		// Every event kills all replicas of its spheres and nothing else.
		for i, ev := range events {
			if ev.step <= 0 || ev.step >= steps {
				t.Fatalf("seed %d: event at step %d outside (0, %d)", seed, ev.step, steps)
			}
			if i > 0 && ev.step <= events[i-1].step {
				t.Fatalf("seed %d: event steps %d, %d not distinct and ascending", seed, events[i-1].step, ev.step)
			}
			want := make(map[int]bool)
			for _, v := range ev.spheres {
				for _, p := range spheres[v] {
					want[p] = true
				}
			}
			got := make(map[int]bool)
			for _, k := range kills {
				if k.Step == ev.step {
					got[k.Rank] = true
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: killed %v, want whole spheres %v", seed, ev.step, got, want)
			}
			dead := make(map[int]int)
			for p := range got {
				dead[owner[p]]++
			}
			for v, n := range dead {
				if n != len(spheres[v]) {
					t.Fatalf("seed %d step %d: sphere %d lost %d of %d replicas", seed, ev.step, v, n, len(spheres[v]))
				}
			}
		}
	}
	a, _ := killSchedule(1, spheres)
	b, _ := killSchedule(2, spheres)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 drew the same schedule")
	}
}

// fakeComm is an mpi.Comm with no optional capabilities.
type fakeComm struct{ sends int }

func (c *fakeComm) Rank() int                                   { return 0 }
func (c *fakeComm) Size() int                                   { return 2 }
func (c *fakeComm) Send(dst, tag int, data []byte) error        { c.sends++; return nil }
func (c *fakeComm) Recv(src, tag int) (mpi.Message, error)      { return mpi.Message{}, nil }
func (c *fakeComm) Isend(int, int, []byte) (mpi.Request, error) { return nil, nil }
func (c *fakeComm) Irecv(int, int) (mpi.Request, error)         { return nil, nil }
func (c *fakeComm) Probe(int, int) (mpi.Status, error)          { return mpi.Status{}, nil }
func (c *fakeComm) SetErrhandler(func(mpi.FailureInfo))         {}
func (c *fakeComm) FailureAck() []int                           { return nil }
func (c *fakeComm) Shrink() (mpi.Comm, error)                   { return c, nil }
func (c *fakeComm) Agree(flag bool) (bool, error)               { return flag, nil }

type fakeShared struct{ *fakeComm }

func (fakeShared) AcquireBuffer(n int) ([]byte, *mpi.PooledBuf) { return make([]byte, n), nil }
func (c fakeShared) SendPooled(int, int, []byte, *mpi.PooledBuf) error {
	c.sends++
	return nil
}

type fakeCounts struct{ *fakeComm }

func (fakeCounts) SentCounts() []uint64 { return []uint64{7, 8} }
func (fakeCounts) RecvCounts() []uint64 { return []uint64{9, 10} }

type fakeBoth struct{ *fakeComm }

func (c fakeBoth) AcquireBuffer(n int) ([]byte, *mpi.PooledBuf) {
	return fakeShared{c.fakeComm}.AcquireBuffer(n)
}
func (c fakeBoth) SendPooled(dst, tag int, data []byte, pb *mpi.PooledBuf) error {
	return fakeShared{c.fakeComm}.SendPooled(dst, tag, data, pb)
}
func (c fakeBoth) SentCounts() []uint64 { return fakeCounts{c.fakeComm}.SentCounts() }
func (c fakeBoth) RecvCounts() []uint64 { return fakeCounts{c.fakeComm}.RecvCounts() }

func capabilities(c mpi.Comm) (shared, counts bool) {
	_, shared = c.(mpi.SharedSender)
	_, counts = c.(mpi.CountTracker)
	return shared, counts
}

func TestWrappersForwardExactlyTheCapabilities(t *testing.T) {
	base := &fakeComm{}
	both := fakeBoth{base}
	cases := []mpi.Comm{base, fakeShared{base}, fakeCounts{base}, both}
	for _, inner := range cases {
		for _, virtual := range []bool{false, true} {
			tr := newTracer(0, 2)
			tc := &tracedComm{inner: inner, t: tr, virtual: virtual, lane: tr.newLane()}
			got := wrapComm(tc)
			ws, wc := capabilities(inner)
			gs, gc := capabilities(got)
			if gs != ws || gc != wc {
				t.Fatalf("%T (virtual=%v): wrapper shared=%v counts=%v, want %v %v", inner, virtual, gs, gc, ws, wc)
			}
			if ss, ok := got.(mpi.SharedSender); ok {
				before := base.sends
				if err := ss.SendPooled(1, 3, nil, nil); err != nil || base.sends != before+1 {
					t.Fatalf("%T: SendPooled not forwarded", inner)
				}
			}
			if ct, ok := got.(mpi.CountTracker); ok {
				if !reflect.DeepEqual(ct.SentCounts(), []uint64{7, 8}) || !reflect.DeepEqual(ct.RecvCounts(), []uint64{9, 10}) {
					t.Fatalf("%T: counts not forwarded", inner)
				}
			}
		}
	}

	// A real transport: its endpoints have both capabilities, and so
	// must the traced endpoints.
	world, err := simmpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	tt := tracedTransport{Transport: world, t: newTracer(0, 2)}
	raw, _ := world.Endpoint(0)
	ep, err := tt.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	rs, rc := capabilities(raw)
	es, ec := capabilities(ep)
	if !rs || !rc || es != rs || ec != rc {
		t.Fatalf("simmpi endpoint shared=%v counts=%v, traced shared=%v counts=%v", rs, rc, es, ec)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: spApp, parent: -1, start: 0, end: 100},
		{kind: spVirtSend, parent: 0, start: 10, end: 30},
		{kind: spVirtWait, parent: 0, start: 20, end: 50},  // overlaps its sibling
		{kind: spVirtWait, parent: 0, start: 90, end: 120}, // runs past its parent
		{kind: spEpSend, parent: 1, start: 12, end: 18},
		{kind: spEpWait, parent: 1, start: 15, end: 25},
		{kind: spEpWait, parent: -1, start: 5, end: 4}, // never closed
	}
	got := selfTimes(spans)
	want := []int64{100 - (40 + 10), 20 - 13, 30, 30, 6, 10, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestLaneNesting(t *testing.T) {
	tr := newTracer(0, 1)
	l := tr.newLane()
	tr.app[0].Store(l)
	app := l.begin(spApp, 0)
	send := l.begin(spVirtSend, 1)
	tr.appLane(0).leaf(spEpSend, 2, 3)
	l.end(send, 4)
	tr.appLane(0).leaf(spEpWait, 5, 6)
	l.end(app, 7)
	tr.app[0].Store(nil)
	tr.appLane(0).leaf(spEpWait, 8, 9)

	parents := []int32{-1, 0, 1, 0}
	for i, s := range l.spans {
		if s.parent != parents[i] {
			t.Fatalf("span %d (%s) parent %d, want %d", i, spanNames[s.kind], s.parent, parents[i])
		}
	}
	if n := len(tr.shared.spans); n != 1 {
		t.Fatalf("shared lane holds %d spans, want the 1 outside App.Run", n)
	}
	sum := tr.summary()
	if sum[spApp].self != 7-3-1 || sum[spVirtSend].self != 2 || sum[spEpWait].count != 2 {
		t.Fatalf("summary = %+v", sum)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %d", names, len(workloads))
	}

	check := func(kind string, catalog []metric, listed map[string]string) {
		if len(listed) != len(catalog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(catalog))
		}
		values := make(map[string]float64)
		for _, m := range catalog {
			if !nameRE.MatchString(m.name) || len(m.name) > 64 {
				t.Errorf("%s: bad metric name %q", kind, m.name)
			}
			if unit, ok := listed[m.name]; !ok || unit != m.unit {
				t.Errorf("%s: %s printed with unit %q, BENCHMARK.json says %q", kind, m.name, m.unit, unit)
			}
			values[m.name] = 1
		}
		var buf bytes.Buffer
		if err := report(&buf, result{Correct: true, Attempted: 1}, catalog, values); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		for name, unit := range listed {
			if m, ok := res.Metrics[name]; !ok || m.Unit != unit || m.Unit == "" {
				t.Errorf("%s: %s not printed with unit %q: %+v", kind, name, unit, m)
			}
			if !strings.Contains(buf.String(), name+" ") {
				t.Errorf("%s: %s missing from the human-readable lines", kind, name)
			}
		}
	}
	e2e := make(map[string]string)
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	layer := make(map[string]string)
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
	if _, ok := e2e["setup_s"]; !ok {
		t.Error("BENCHMARK.json has no setup_s")
	}
}

// TestSocketJobTracedMatchesUntraced runs one traced pair end to end on
// the smallest workload: results check out and exact counts agree.
func TestSocketJobTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole jobs")
	}
	// The run writes its span dump under the working directory.
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	t.Setenv("TMPDIR", dir)
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "cg-socket", "--seed", "3", "--seconds", "0.01", "--trace", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 2 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Metrics["procmpi.frames_tx"].Value == 0 || res.Metrics["simmpi.sends"].Value != 0 {
		t.Fatalf("cg-socket must run on procmpi only: %+v", res.Metrics)
	}
}

// TestTimeSetups times the set-ups of every workload and tears each
// socket world down again.
func TestTimeSetups(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the socket directories
	for _, w := range workloads {
		in, err := w.inputs(1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := timeSetups(w, in, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(got) != 3 {
			t.Fatalf("%s: %d set-ups, want 3", w.name, len(got))
		}
		for _, s := range got {
			if s <= 0 {
				t.Fatalf("%s: set-up took %v s", w.name, s)
			}
		}
	}
}
