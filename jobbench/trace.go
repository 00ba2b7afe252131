package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/checkpoint"
	"repro/internal/mpi"
)

// spanKind names one boundary the traced run records.
type spanKind uint8

const (
	spJob           spanKind = iota // one core.Run call
	spTransport                     // one Config.Transport factory call
	spApp                           // one App.Run call (one rank, one epoch)
	spVirtSend                      // Send/Isend on the Comm handed to the app
	spVirtWait                      // Recv/Probe/Wait on the Comm handed to the app
	spEpSend                        // Send/SendPooled/Isend on a transport endpoint
	spEpWait                        // Recv/Probe/Wait on a transport endpoint
	spPeerSend                      // peer-store frame sent through an endpoint
	spPeerFetchWait                 // wait for a peer-store fetch reply
	spStableWrite                   // Config.Storage Write
	spStableCommit                  // Config.Storage Commit
	spStableRead                    // Config.Storage Read
	spStableOther                   // Config.Storage Latest/Drop
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"job", "transport.new", "app.run", "virt.send", "virt.wait",
	"ep.send", "ep.wait", "peer.send", "peer.fetch_wait",
	"stable.write", "stable.commit", "stable.read", "stable.other",
}

// noSpan marks a call the tracer does not record: a peer-store server
// blocked waiting for work is idle, not cost.
const noSpan = numSpanKinds

// span is one recorded interval. Times are nanoseconds since the
// tracer's origin; parent indexes the same lane, -1 for none.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// lane holds the spans of one thread of control. The lane of an App.Run
// call is used by one goroutine, so its open-span stack gives every span
// its parent. Shared lanes take concurrent leaves without parents.
type lane struct {
	id    int
	mu    sync.Mutex
	spans []span
	open  []int32
}

// begin opens a span whose parent is the innermost open span.
func (l *lane) begin(k spanKind, start int64) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := int32(len(l.spans))
	l.spans = append(l.spans, span{kind: k, parent: l.topLocked(), start: start, end: -1})
	l.open = append(l.open, idx)
	return idx
}

// end closes the span begin returned.
func (l *lane) end(idx int32, end int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[idx].end = end
	for i := len(l.open) - 1; i >= 0; i-- {
		if l.open[i] == idx {
			l.open = append(l.open[:i], l.open[i+1:]...)
			break
		}
	}
}

// leaf records a finished span with no children under the innermost
// open span (none on a shared lane, which never opens spans).
func (l *lane) leaf(k spanKind, start, end int64) {
	l.mu.Lock()
	l.spans = append(l.spans, span{kind: k, parent: l.topLocked(), start: start, end: end})
	l.mu.Unlock()
}

func (l *lane) topLocked() int32 {
	if n := len(l.open); n > 0 {
		return l.open[n-1]
	}
	return -1
}

// tracer records the spans of one job.
type tracer struct {
	origin time.Time
	job    int

	mu    sync.Mutex
	lanes []*lane

	// app holds, per physical rank, the lane of its running App.Run
	// call: endpoint traffic of the redundancy layer happens on that
	// goroutine, inside the virtual call that caused it.
	app []atomic.Pointer[lane]
	// shared takes peer-store, stable-storage and transport-factory
	// spans, and endpoint traffic outside any App.Run (the end-of-run
	// checkpoint drain).
	shared *lane
}

func newTracer(job, physical int) *tracer {
	t := &tracer{origin: time.Now(), job: job, app: make([]atomic.Pointer[lane], physical)}
	t.shared = t.newLane()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) newLane() *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{id: len(t.lanes)}
	t.lanes = append(t.lanes, l)
	return l
}

// appLane returns the lane of physical rank p's running App.Run call,
// or the shared lane when none runs.
func (t *tracer) appLane(p int) *lane {
	if p >= 0 && p < len(t.app) {
		if l := t.app[p].Load(); l != nil {
			return l
		}
	}
	return t.shared
}

// kindTotals is the time and call count of one span kind.
type kindTotals struct {
	count int64
	total int64 // summed durations
	self  int64 // summed durations minus the part child spans cover
}

// summary folds every lane into per-kind totals.
func (t *tracer) summary() [numSpanKinds]kindTotals {
	t.mu.Lock()
	lanes := append([]*lane(nil), t.lanes...)
	t.mu.Unlock()
	var out [numSpanKinds]kindTotals
	for _, l := range lanes {
		l.mu.Lock()
		self := selfTimes(l.spans)
		for i, s := range l.spans {
			if s.end < s.start {
				continue // never closed: the job tore down mid-call
			}
			k := &out[s.kind]
			k.count++
			k.total += s.end - s.start
			k.self += self[i]
		}
		l.mu.Unlock()
	}
	return out
}

// spanCount returns how many spans the job recorded.
func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, l := range t.lanes {
		l.mu.Lock()
		n += len(l.spans)
		l.mu.Unlock()
	}
	return n
}

// writeSpans dumps every span as one tab-separated line:
// job, lane, index, parent, name, start ns, end ns.
func (t *tracer) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	t.mu.Lock()
	lanes := append([]*lane(nil), t.lanes...)
	t.mu.Unlock()
	for _, l := range lanes {
		l.mu.Lock()
		for i, s := range l.spans {
			fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n",
				t.job, l.id, i, s.parent, spanNames[s.kind], s.start, s.end)
		}
		l.mu.Unlock()
	}
	return bw.Flush()
}

// selfTimes returns each span's duration minus the union of its direct
// children's intervals, clipped to the span. Unclosed spans count zero.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.parent >= 0 && s.end >= s.start {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		self[i] = (s.end - s.start) - covered(s.start, s.end, children[int32(i)])
	}
	return self
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, ivs []span) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max64(iv.start, lo), min64(iv.end, hi)
		if b <= a {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max64(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// --- wrappers around the public surfaces the benchmark calls ---

// tracedApp times App.Run and hands the application a timing Comm.
type tracedApp struct {
	inner apps.App
	t     *tracer
}

func (a *tracedApp) Name() string { return a.inner.Name() }

func (a *tracedApp) Run(ctx *apps.Context) error {
	phys := -1
	if pr, ok := ctx.Comm.(interface{ Physical() int }); ok {
		phys = pr.Physical()
	}
	l := a.t.newLane()
	if phys >= 0 && phys < len(a.t.app) {
		a.t.app[phys].Store(l)
		defer a.t.app[phys].CompareAndSwap(l, nil)
	}
	idx := l.begin(spApp, a.t.now())
	c := *ctx
	c.Comm = wrapComm(&tracedComm{inner: ctx.Comm, t: a.t, virtual: true, lane: l})
	err := a.inner.Run(&c)
	l.end(idx, a.t.now())
	return err
}

// unwrapApp returns the application a tracedApp wraps.
func unwrapApp(a apps.App) apps.App {
	if ta, ok := a.(*tracedApp); ok {
		return ta.inner
	}
	return a
}

// tracedComm times the calls made through one communicator: the
// virtual Comm handed to the application (spans nest in its App.Run
// lane) or a transport endpoint (leaf spans, attributed by tag).
type tracedComm struct {
	inner   mpi.Comm
	t       *tracer
	virtual bool
	lane    *lane // virtual only: the App.Run lane
	rank    int   // endpoint only: the physical rank
}

// call is one call in progress.
type call struct {
	kind  spanKind
	lane  *lane
	idx   int32 // virtual: the open span
	start int64
}

// enter starts timing a call; send selects the send or the wait kind.
func (c *tracedComm) enter(send bool, tag int) call {
	start := c.t.now()
	if c.virtual {
		k := spVirtWait
		if send {
			k = spVirtSend
		}
		return call{kind: k, lane: c.lane, idx: c.lane.begin(k, start), start: start}
	}
	// The peer store talks on mpi.TagPeerBase (requests and replicated
	// shards, served by a goroutine blocked in Recv) and TagPeerBase+1
	// (fetch replies). Every other tag is the redundancy layer's, sent
	// and received on the application's goroutine.
	switch {
	case tag >= mpi.TagPeerBase && send:
		return call{kind: spPeerSend, lane: c.t.shared, start: start}
	case tag == mpi.TagPeerBase+1:
		return call{kind: spPeerFetchWait, lane: c.t.shared, start: start}
	case tag >= mpi.TagPeerBase:
		return call{kind: noSpan}
	case send:
		return call{kind: spEpSend, lane: c.t.appLane(c.rank), start: start}
	default:
		return call{kind: spEpWait, lane: c.t.appLane(c.rank), start: start}
	}
}

func (c *tracedComm) exit(k call) {
	switch {
	case k.kind == noSpan:
	case c.virtual:
		k.lane.end(k.idx, c.t.now())
	default:
		k.lane.leaf(k.kind, k.start, c.t.now())
	}
}

func (c *tracedComm) Rank() int { return c.inner.Rank() }
func (c *tracedComm) Size() int { return c.inner.Size() }

func (c *tracedComm) Send(dst, tag int, data []byte) error {
	k := c.enter(true, tag)
	err := c.inner.Send(dst, tag, data)
	c.exit(k)
	return err
}

func (c *tracedComm) Recv(src, tag int) (mpi.Message, error) {
	k := c.enter(false, tag)
	m, err := c.inner.Recv(src, tag)
	c.exit(k)
	return m, err
}

func (c *tracedComm) Isend(dst, tag int, data []byte) (mpi.Request, error) {
	k := c.enter(true, tag)
	r, err := c.inner.Isend(dst, tag, data)
	c.exit(k)
	if err != nil {
		return r, err
	}
	return &tracedRequest{inner: r, c: c, tag: tag}, nil
}

func (c *tracedComm) Irecv(src, tag int) (mpi.Request, error) {
	r, err := c.inner.Irecv(src, tag)
	if err != nil {
		return r, err
	}
	return &tracedRequest{inner: r, c: c, tag: tag}, nil
}

func (c *tracedComm) Probe(src, tag int) (mpi.Status, error) {
	k := c.enter(false, tag)
	st, err := c.inner.Probe(src, tag)
	c.exit(k)
	return st, err
}

func (c *tracedComm) SetErrhandler(fn func(mpi.FailureInfo)) { c.inner.SetErrhandler(fn) }
func (c *tracedComm) FailureAck() []int                      { return c.inner.FailureAck() }
func (c *tracedComm) Shrink() (mpi.Comm, error)              { return c.inner.Shrink() }
func (c *tracedComm) Agree(flag bool) (bool, error)          { return c.inner.Agree(flag) }

// tracedRequest times Wait on a non-blocking operation.
type tracedRequest struct {
	inner mpi.Request
	c     *tracedComm
	tag   int
}

func (r *tracedRequest) Wait() (mpi.Message, mpi.Status, error) {
	k := r.c.enter(false, r.tag)
	m, st, err := r.inner.Wait()
	r.c.exit(k)
	return m, st, err
}

func (r *tracedRequest) Test() (bool, mpi.Message, mpi.Status, error) { return r.inner.Test() }

// sharedPart forwards mpi.SharedSender, timing SendPooled.
type sharedPart struct {
	c  *tracedComm
	ss mpi.SharedSender
}

func (p sharedPart) AcquireBuffer(n int) ([]byte, *mpi.PooledBuf) { return p.ss.AcquireBuffer(n) }

func (p sharedPart) SendPooled(dst, tag int, data []byte, pb *mpi.PooledBuf) error {
	k := p.c.enter(true, tag)
	err := p.ss.SendPooled(dst, tag, data, pb)
	p.c.exit(k)
	return err
}

// countPart forwards mpi.CountTracker.
type countPart struct{ ct mpi.CountTracker }

func (p countPart) SentCounts() []uint64 { return p.ct.SentCounts() }
func (p countPart) RecvCounts() []uint64 { return p.ct.RecvCounts() }

type (
	commShared struct {
		*tracedComm
		sharedPart
	}
	commCounts struct {
		*tracedComm
		countPart
	}
	commSharedCount struct {
		*tracedComm
		sharedPart
		countPart
	}
)

// wrapComm returns c as an mpi.Comm that implements mpi.SharedSender and
// mpi.CountTracker exactly when the wrapped communicator does, so every
// layer above takes the same path it takes without tracing.
func wrapComm(c *tracedComm) mpi.Comm {
	ss, shared := c.inner.(mpi.SharedSender)
	ct, counts := c.inner.(mpi.CountTracker)
	switch {
	case shared && counts:
		return commSharedCount{c, sharedPart{c, ss}, countPart{ct}}
	case shared:
		return commShared{c, sharedPart{c, ss}}
	case counts:
		return commCounts{c, countPart{ct}}
	default:
		return c
	}
}

// tracedTransport hands out timing endpoints.
type tracedTransport struct {
	mpi.Transport
	t *tracer
}

func (tt tracedTransport) Endpoint(rank int) (mpi.Comm, error) {
	c, err := tt.Transport.Endpoint(rank)
	if err != nil {
		return c, err
	}
	return wrapComm(&tracedComm{inner: c, t: tt.t, rank: rank}), nil
}

// tracedStorage times the stable checkpoint tier.
type tracedStorage struct {
	inner checkpoint.Storage
	t     *tracer
	bytes atomic.Int64
}

var _ checkpoint.Storage = (*tracedStorage)(nil)

func (s *tracedStorage) timed(k spanKind, fn func() error) error {
	start := s.t.now()
	err := fn()
	s.t.shared.leaf(k, start, s.t.now())
	return err
}

func (s *tracedStorage) Write(gen uint64, rank int, state []byte) error {
	s.bytes.Add(int64(len(state)))
	return s.timed(spStableWrite, func() error { return s.inner.Write(gen, rank, state) })
}

func (s *tracedStorage) Commit(gen uint64, n int) error {
	return s.timed(spStableCommit, func() error { return s.inner.Commit(gen, n) })
}

func (s *tracedStorage) Latest() (gen uint64, n int, ok bool, err error) {
	err = s.timed(spStableOther, func() error {
		var lerr error
		gen, n, ok, lerr = s.inner.Latest()
		return lerr
	})
	return gen, n, ok, err
}

func (s *tracedStorage) Read(gen uint64, rank int) (state []byte, err error) {
	err = s.timed(spStableRead, func() error {
		var rerr error
		state, rerr = s.inner.Read(gen, rank)
		return rerr
	})
	return state, err
}

func (s *tracedStorage) Drop(gen uint64) error {
	return s.timed(spStableOther, func() error { return s.inner.Drop(gen) })
}
