// Command jobbench is the repository's benchmark: it runs the CG
// application as whole jobs through core.Run on one workload, checks
// every job's result against a reference solve, and prints each metric
// by name and unit, with one JSON object as the last line of output.
//
//	jobbench --workload cg-partial --seed 1 --seconds 10 --trace 0
//
// --trace 0 times untraced jobs and reports the end-to-end metrics;
// --trace 1 alternates untraced and traced jobs on the same inputs and
// reports the per-layer metrics. See README.md for the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spanDir receives the span dump of a traced run.
const spanDir = ".bench_build"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jobbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cg-partial, cg-recover or cg-socket")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long to keep starting jobs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced jobs; 1: per-layer metrics from traced jobs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "jobbench: need --workload, --seconds > 0 and --trace 0|1 (%v)\n", err)
		return 2
	}
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	in, err := w.inputs(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "jobbench: %v\n", err)
		return 1
	}
	ref, err := reference(w, in)
	if err != nil {
		fmt.Fprintf(stderr, "jobbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d: N=%d r=%g grid=%d steps=%d, reference checksum %.17g\n",
		w.name, *seed, w.ranks, w.degree, grid, steps, ref)
	for _, ev := range in.events {
		fmt.Fprintf(stdout, "kill event: step %d spheres %v\n", ev.step, ev.spheres)
	}

	var out result
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	var untraced, traced []jobResult
	var setups []float64
	var fidelity []string
	for id := 0; id == 0 || time.Now().Before(deadline); id++ {
		if *trace == 0 {
			s, err := timeSetups(w, in, setupsPerJob)
			if err != nil {
				fmt.Fprintf(stderr, "jobbench: %v\n", err)
				return 1
			}
			setups = append(setups, s...)
			untraced = append(untraced, runJob(w, in, ref, id, false))
			continue
		}
		// Alternate which side of the pair runs first.
		var u, t jobResult
		if id%2 == 0 {
			u = runJob(w, in, ref, 2*id, false)
			t = runJob(w, in, ref, 2*id+1, true)
		} else {
			t = runJob(w, in, ref, 2*id, true)
			u = runJob(w, in, ref, 2*id+1, false)
		}
		// Write the first traced job's spans out and keep none: spans held
		// across jobs would grow the live heap and thin out later jobs' GC.
		if id == 0 && t.tr != nil {
			if err := dumpSpans(w.name, t.tr); err != nil {
				fmt.Fprintf(stderr, "jobbench: writing spans: %v\n", err)
			}
		}
		t.tr = nil
		untraced, traced = append(untraced, u), append(traced, t)
		if u.err == nil && t.err == nil {
			for _, d := range countsDiffer(u.res.Metrics, t.res.Metrics) {
				fidelity = append(fidelity, fmt.Sprintf("pair %d: %s", id, d))
			}
		}
	}

	all := append(append([]jobResult(nil), untraced...), traced...)
	out.Attempted = len(all)
	for _, j := range all {
		if j.err != nil {
			out.Failed++
			fmt.Fprintf(stdout, "job failed: %v\n", j.err)
		}
	}
	for _, f := range fidelity {
		fmt.Fprintf(stdout, "traced run changed an exact count: %s\n", f)
	}
	out.Correct = out.Failed == 0 && len(fidelity) == 0
	reportJobs(stdout, "untraced", untraced)

	var values map[string]float64
	catalog := endToEnd
	if *trace == 0 {
		values = endToEndValues(untraced, setups, out.Attempted, out.Failed)
	} else {
		reportJobs(stdout, "traced", traced)
		m, merr := buildMatrix(in.seed)
		if merr != nil {
			fmt.Fprintf(stderr, "jobbench: %v\n", merr)
			return 1
		}
		// Per step of one virtual rank, on average: a matvec over its
		// rows (2 flops per nonzero), two dot products and three axpys
		// over its entries (2 flops per entry each).
		flops := float64(2*len(m.Values)+10*m.N) / float64(w.ranks)
		values = perLayerValues(layerInputs{traced: traced, untraced: untraced, flopsPerStep: flops, socket: w.socket})
		catalog = perLayer
	}
	if err := report(stdout, out, catalog, values); err != nil {
		fmt.Fprintf(stderr, "jobbench: %v\n", err)
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

// report prints every metric of the catalog by name, value and unit,
// then the result as one JSON line.
func report(w io.Writer, out result, catalog []metric, values map[string]float64) error {
	out.Metrics = make(map[string]metricJSON, len(catalog))
	for _, m := range catalog {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-34s %16.6g %s\n", m.name, v, m.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// reportJobs prints the job-time distribution and the counts the JSON
// line does not carry.
func reportJobs(w io.Writer, label string, jobs []jobResult) {
	var jobS, recomputed []float64
	failed := 0
	for _, j := range jobs {
		jobS = append(jobS, j.jobS)
		recomputed = append(recomputed, float64(j.res.RecomputedSteps))
		if j.err != nil {
			failed++
		}
	}
	fmt.Fprintf(w, "%s jobs: n=%d job_s median=%.4f p25=%.4f p75=%.4f s, jobs_failed=%d/%d, recomputed_steps median=%g steps\n",
		label, len(jobs), median(jobS), quantile(jobS, 0.25), quantile(jobS, 0.75), failed, len(jobs), median(recomputed))
	fmt.Fprintf(w, "%s job_s samples:", label)
	for _, s := range jobS {
		fmt.Fprintf(w, " %.4f", s)
	}
	fmt.Fprintln(w)
}

// dumpSpans writes the spans of one traced job, one per line.
func dumpSpans(workload string, t *tracer) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(spanDir, "spans-"+workload+".tsv"))
	if err != nil {
		return err
	}
	if err := t.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
