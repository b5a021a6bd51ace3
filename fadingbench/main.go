// Command fadingbench is the repository's benchmark. It drives an
// in-process fadingd over two keep-alive connections and the rayleigh
// Stream/Cursor API directly, on one of three seeded workloads, checks the
// outputs, and prints every metric by name and unit. The last line of
// standard output is the JSON result. README.md describes the workloads,
// the metrics and the drift normalization.
//
// Usage:
//
//	bash fadingbench/run.sh --workload paper-eq22 --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: paper-eq22, nakagami-eq22 or churn-n32")
	seed := flag.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 10, "seconds the timed phases of one pass take")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 also runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fadingbench: want --workload paper-eq22|nakagami-eq22|churn-n32, --seconds > 0, --trace 0|1\n")
		return 2
	}
	b, err := newBench(w, *seed, *seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fadingbench: %v\n", err)
		return 1
	}
	u, err := b.measure()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fadingbench: %v\n", err)
		return 1
	}
	b.checkFrames()
	stat := b.checkStatistics()

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	var ms []metric
	if *trace == 1 {
		var summary string
		ms, summary, err = b.tracedPass(u)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fadingbench: traced pass: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "# decomposition: %s\n", summary)
	} else {
		ms = []metric{
			{"setup_s", u.setupNorm, "s"},
			{"lib_samples_per_s", u.libNorm, "1/s"},
			{"served_samples_per_s", u.servedNorm, "1/s"},
		}
	}
	b.report(out, u, stat)
	attempted, failed := b.ops.totals()
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]map[string]any)}
	for _, m := range ms {
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fadingbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if failed > 0 {
		return 1
	}
	return 0
}

// report prints the provenance, the untraced pass's raw twins and sample
// counts, the failure accounting and the statistics check, one "# " line
// each, ahead of the JSON result.
func (b *bench) report(out io.Writer, u *endToEnd, stat statReport) {
	prov := map[string]any{
		"workload":   b.w.name,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"commit":     commit(),
		"source":     sourceDigest(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": map[string]int{"setup": 2, "served": 2, "library": 1, "replay": 1},
		"kernel": map[string]any{
			"rate_1":   u.probe1,
			"rate_2":   u.probe2,
			"spread_1": u.probeSpread[0],
			"spread_2": u.probeSpread[1],
			"p_ref_1":  b.w.ref1,
			"p_ref_2":  b.w.ref2,
		},
	}
	p, _ := json.Marshal(prov)
	fmt.Fprintf(out, "# provenance %s\n", p)
	fmt.Fprintf(out, "# end-to-end (normalized | raw): setup_s %.6g | %.6g; lib_samples_per_s %.6g | %.6g; served_samples_per_s %.6g | %.6g; max_rss_mb %.6g\n",
		u.setupNorm, u.setupRaw, u.libNorm, u.libRaw, u.servedNorm, u.servedRaw, u.rssMB)
	fmt.Fprintf(out, "# first_block_ms p50 %.4g p95 %.4g (raw p50 %.4g) over %d samples\n",
		quantile(u.firstNorm, 0.5), quantile(u.firstNorm, 0.95), quantile(u.firstRaw, 0.5), len(u.firstNorm))
	for k := 0; k < numKinds; k++ {
		if len(u.createNorm[k]) > 0 {
			fmt.Fprintf(out, "# create_%s_ms p50 %.4g (raw %.4g) over %d samples\n",
				kindNames[k], quantile(u.createNorm[k], 0.5), quantile(u.createRaw[k], 0.5), len(u.createNorm[k]))
		}
	}
	for op := 0; op < numOps; op++ {
		fmt.Fprintf(out, "# ops %s: attempted %d failed %d\n", opNames[op], b.ops.attempted[op].Load(), b.ops.failed[op].Load())
	}
	for _, e := range b.ops.errs {
		fmt.Fprintf(out, "# failure: %s\n", e)
	}
	fmt.Fprintf(out, "# checks: %d frames byte-for-byte; statistics over %d blocks x %d rows: max covariance error %.4g (tolerance %g), Nakagami Ω relative error %.4g (tolerance %g), m̂ %.4g (|m̂-m| tolerance %g)\n",
		len(b.kept), stat.blocks, stat.rows, stat.covErr, covTol, stat.omegaErr, omegaTol, stat.mHat, mTol)
}

// commit returns the VCS revision the binary was built from, when the
// build had one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and go.mod files under the working
// directory (the checkout), so a result names the code it measured even
// where no VCS revision is available.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
