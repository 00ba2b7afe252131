package main

import (
	"math"
	"sort"
)

// metric is one named, unit-carrying number the benchmark reports.
type metric struct {
	name, unit string
}

// endToEnd are the untraced run's metrics, what a user of the system sees.
var endToEnd = []metric{
	{"job_s", "s"},              // median wall time of core.Run to a checked solution
	{"setup_s", "s"},            // median of the run's timed set-ups: matrix build + one Config.Transport call
	{"peak_rss_mb", "MB"},       // median per-job peak resident set
	{"executed_steps", "steps"}, // median steps executed over all virtual ranks, rework included
	{"jobs_ok", "share"},        // share of attempted jobs that completed with the reference checksum
}

// perLayer are the traced run's metrics, each per job unless it is a
// ratio. Times of a layer's calls are measured from outside through
// the wrappers in trace.go; counts come from the runtime's registry.
var perLayer = []metric{
	{"apps.compute_s", "s"},
	{"apps.steps", "steps"},
	{"apps.flops", "flop"},
	{"redundancy.send_s", "s"},
	{"redundancy.wait_s", "s"},
	{"redundancy.self_s", "s"},
	{"redundancy.virtual_sends", "count"},
	{"redundancy.physical_sends", "count"},
	{"redundancy.fanout", "ratio"},
	{"redundancy.votes", "count"},
	{"redundancy.mismatches", "count"},
	{"simmpi.send_s", "s"},
	{"simmpi.recv_wait_s", "s"},
	{"simmpi.sends", "count"},
	{"simmpi.send_bytes", "bytes"},
	{"simmpi.copies_elided", "count"},
	{"simmpi.mailbox_depth_hwm", "count"},
	{"procmpi.send_s", "s"},
	{"procmpi.recv_wait_s", "s"},
	{"procmpi.frames_tx", "count"},
	{"procmpi.frames_rx", "count"},
	{"procmpi.bytes_tx", "bytes"},
	{"procmpi.frames_per_msg", "ratio"},
	{"checkpoint.stall_s", "s"},
	{"checkpoint.overlap_s", "s"},
	{"checkpoint.bytes_written", "bytes"},
	{"checkpoint.commit_ratio", "ratio"},
	{"checkpoint.drain_waits", "count"},
	{"checkpoint.bookmark_retries", "count"},
	{"checkpoint.restores", "count"},
	{"checkpoint.stable_write_s", "s"},
	{"checkpoint.stable_commit_s", "s"},
	{"checkpoint.stable_read_s", "s"},
	{"checkpoint.stable_bytes", "bytes"},
	{"checkpoint.peer_send_s", "s"},
	{"checkpoint.peer_fetch_wait_s", "s"},
	{"checkpoint.peer_bytes_replicated", "bytes"},
	{"checkpoint.peer_resident_bytes", "bytes"},
	{"checkpoint.peer_fetch_remote", "count"},
	{"checkpoint.peer_fetch_retries", "count"},
	{"checkpoint.peer_evictions", "count"},
	{"failure.kills", "count"},
	{"failure.sphere_exhausted", "count"},
	{"core.partial_restarts", "count"},
	{"core.partial_fallbacks", "count"},
	{"core.restarts", "count"},
	{"core.attempt_s", "s"},
	{"core.recomputed_steps", "steps"},
	{"core.useful_step_ratio", "ratio"},
	{"core.recovery_drain_s", "s"},
	{"core.recovery_revive_s", "s"},
	{"core.recovery_resume_s", "s"},
	{"setup.matrix_s", "s"},
	{"setup.transport_s", "s"},
	{"go.alloc_bytes", "bytes"},
	{"go.allocs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"trace.job_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
	{"trace.pairs", "count"},
}

// endToEndValues computes the end-to-end metrics over the timed
// untraced jobs and set-ups; jobs_ok counts every attempted job.
func endToEndValues(jobs []jobResult, setups []float64, attempted, failed int) map[string]float64 {
	var jobS, rss, executed []float64
	for _, j := range jobs {
		jobS = append(jobS, j.jobS)
		rss = append(rss, j.rssPeak)
		executed = append(executed, float64(j.res.Metrics.Gauge("runner_steps_observed")))
	}
	return map[string]float64{
		"job_s":          median(jobS),
		"setup_s":        median(setups),
		"peak_rss_mb":    median(rss),
		"executed_steps": median(executed),
		"jobs_ok":        float64(attempted-failed) / float64(attempted),
	}
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	traced, untraced []jobResult
	flopsPerStep     float64 // computed flops of one step of one virtual rank, on average
	socket           bool
}

// perLayerValues computes the per-layer metrics: span times and counts
// from the traced jobs, Go runtime work and set-up from their untraced
// pairs (tracing allocates), all averaged per job.
func perLayerValues(in layerInputs) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	tj := in.traced
	mean := func(f func(j jobResult) float64) float64 {
		var s float64
		for _, j := range tj {
			s += f(j)
		}
		return s / float64(len(tj))
	}
	total := func(k spanKind) float64 {
		return mean(func(j jobResult) float64 { return float64(j.spans[k].total) / 1e9 })
	}
	self := func(k spanKind) float64 {
		return mean(func(j jobResult) float64 { return float64(j.spans[k].self) / 1e9 })
	}
	counter := func(name string) float64 {
		return mean(func(j jobResult) float64 { return float64(j.res.Metrics.Counter(name)) })
	}
	gauge := func(name string) float64 {
		return mean(func(j jobResult) float64 { return float64(j.res.Metrics.Gauge(name)) })
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	steps := gauge("runner_steps_observed")
	recomputed := mean(func(j jobResult) float64 { return float64(j.res.RecomputedSteps) })
	out["apps.compute_s"] = self(spApp)
	out["apps.steps"] = steps
	out["apps.flops"] = steps * in.flopsPerStep

	virt := mean(func(j jobResult) float64 { return float64(j.res.Redundancy.VirtualSends) })
	phys := mean(func(j jobResult) float64 { return float64(j.res.Redundancy.PhysicalSends) })
	out["redundancy.send_s"] = total(spVirtSend)
	out["redundancy.wait_s"] = total(spVirtWait)
	out["redundancy.self_s"] = self(spVirtSend) + self(spVirtWait)
	out["redundancy.virtual_sends"] = virt
	out["redundancy.physical_sends"] = phys
	out["redundancy.fanout"] = ratio(phys, virt)
	out["redundancy.votes"] = mean(func(j jobResult) float64 { return float64(j.res.Redundancy.Votes) })
	out["redundancy.mismatches"] = mean(func(j jobResult) float64 { return float64(j.res.Redundancy.Mismatches) })

	// Endpoint spans belong to whichever transport the workload runs.
	transport, other := "simmpi", "procmpi"
	if in.socket {
		transport, other = other, transport
	}
	out[transport+".send_s"] = total(spEpSend)
	out[transport+".recv_wait_s"] = total(spEpWait)
	out[other+".send_s"] = 0
	out[other+".recv_wait_s"] = 0
	out["simmpi.sends"] = counter("simmpi_sends_total")
	out["simmpi.send_bytes"] = counter("simmpi_send_bytes_total")
	out["simmpi.copies_elided"] = counter("simmpi_copies_elided_total")
	out["simmpi.mailbox_depth_hwm"] = gauge("simmpi_mailbox_depth_hwm")
	framesTx := counter("proc_frames_tx_total")
	out["procmpi.frames_tx"] = framesTx
	out["procmpi.frames_rx"] = counter("proc_frames_rx_total")
	out["procmpi.bytes_tx"] = counter("proc_bytes_tx_total")
	epSends := mean(func(j jobResult) float64 { return float64(j.spans[spEpSend].count + j.spans[spPeerSend].count) })
	out["procmpi.frames_per_msg"] = ratio(framesTx, epSends)

	out["checkpoint.stall_s"] = counter("checkpoint_stall_ns_total") / 1e9
	out["checkpoint.overlap_s"] = counter("checkpoint_overlap_ns_total") / 1e9
	out["checkpoint.bytes_written"] = counter("checkpoint_bytes_written_total")
	out["checkpoint.commit_ratio"] = ratio(counter("checkpoint_committed_total"), counter("checkpoint_attempted_total"))
	out["checkpoint.drain_waits"] = counter("checkpoint_drain_waits_total")
	out["checkpoint.bookmark_retries"] = counter("checkpoint_bookmark_retries_total")
	out["checkpoint.restores"] = counter("checkpoint_restores_total")
	out["checkpoint.stable_write_s"] = total(spStableWrite)
	out["checkpoint.stable_commit_s"] = total(spStableCommit)
	out["checkpoint.stable_read_s"] = total(spStableRead)
	out["checkpoint.stable_bytes"] = mean(func(j jobResult) float64 { return float64(j.stable) })
	out["checkpoint.peer_send_s"] = total(spPeerSend)
	out["checkpoint.peer_fetch_wait_s"] = total(spPeerFetchWait)
	out["checkpoint.peer_bytes_replicated"] = counter("peerstore_bytes_replicated_total")
	out["checkpoint.peer_resident_bytes"] = gauge("peer_store_resident_bytes")
	out["checkpoint.peer_fetch_remote"] = counter("peer_fetch_remote_total")
	out["checkpoint.peer_fetch_retries"] = counter("peer_fetch_retries_total")
	out["checkpoint.peer_evictions"] = counter("peer_store_evictions_total")

	out["failure.kills"] = counter("failure_kills_total")
	out["failure.sphere_exhausted"] = counter("failure_sphere_exhausted_total")
	out["core.partial_restarts"] = mean(func(j jobResult) float64 { return float64(j.res.PartialRestarts) })
	out["core.partial_fallbacks"] = counter("partial_fallbacks_total")
	out["core.restarts"] = mean(func(j jobResult) float64 { return float64(j.res.Restarts) })
	out["core.attempt_s"] = mean(func(j jobResult) float64 {
		var s float64
		for _, a := range j.res.Attempts {
			s += a.Elapsed.Seconds()
		}
		return s / float64(max(1, len(j.res.Attempts)))
	})
	out["core.recomputed_steps"] = recomputed
	out["core.useful_step_ratio"] = ratio(steps-recomputed, steps)
	for i, name := range []string{"core.recovery_drain_s", "core.recovery_revive_s", "core.recovery_resume_s"} {
		out[name] = mean(func(j jobResult) float64 { return j.recovery[i] })
	}

	var matrix, transportS, jobS, tracedS []float64
	var g goDelta
	for _, j := range in.untraced {
		matrix = append(matrix, j.matrixS)
		transportS = append(transportS, j.transportS)
		jobS = append(jobS, j.jobS)
		g.allocBytes += j.gc.allocBytes
		g.allocs += j.gc.allocs
		g.gcCycles += j.gc.gcCycles
		g.pauseNs += j.gc.pauseNs
	}
	for _, j := range tj {
		tracedS = append(tracedS, j.jobS)
	}
	n := float64(len(in.untraced))
	out["setup.matrix_s"] = median(matrix)
	out["setup.transport_s"] = median(transportS)
	out["go.alloc_bytes"] = float64(g.allocBytes) / n
	out["go.allocs"] = float64(g.allocs) / n
	out["go.gc_cycles"] = float64(g.gcCycles) / n
	out["go.gc_pause_s"] = float64(g.pauseNs) / 1e9 / n
	out["trace.job_s"] = median(tracedS)
	out["trace.overhead_s"] = median(tracedS) - median(jobS)
	out["trace.spans"] = mean(func(j jobResult) float64 { return float64(j.spanCount) })
	out["trace.pairs"] = float64(len(tj))
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics at position (n+1)q, the "exclusive" method of
// Python's statistics.quantiles, clamped to the sample range.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	switch {
	case pos <= 0:
		return s[0]
	case pos >= float64(len(s)-1):
		return s[len(s)-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
