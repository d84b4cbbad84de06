// Command benchjson turns `go test -bench` output into a JSON
// benchmark report, accumulating the repo's performance trajectory.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH_geom.json -commit "$(git rev-parse --short HEAD)"
//
// The report has two sections: "current" (parsed from stdin) and
// "baseline". When the output file already exists its baseline is
// preserved verbatim, so the file self-primes on first run and keeps
// the original reference numbers afterwards; pass -rebase to overwrite
// the baseline with the current run. Each report is stamped with the
// host's core count (nproc), so a scaling row measured on a one-core
// host reads as such, and with the -commit it measured.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is one benchmark run.
type Report struct {
	Note       string      `json:"note,omitempty"`
	Date       string      `json:"date"`
	Commit     string      `json:"commit,omitempty"`
	GoVersion  string      `json:"go_version"`
	NProc      int         `json:"nproc,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// File is the on-disk layout: the frozen reference run plus the most
// recent one.
type File struct {
	Baseline *Report `json:"baseline,omitempty"`
	Current  *Report `json:"current"`
}

// The lazy name capture lets the optional -N GOMAXPROCS suffix match,
// so recorded names are machine-independent ("BenchmarkAddCut", not
// "BenchmarkAddCut-8") and pair up across baseline/current runs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.e+]+) ns/op(.*)$`)

func parse(r *bufio.Scanner) []Benchmark {
	var out []Benchmark
	for r.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(r.Text()))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: m[1], Iterations: iters, NsPerOp: ns}
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "B/op":
				b.BytesPerOp = &v
			case "allocs/op":
				b.AllocsPerOp = &v
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = v
			}
		}
		out = append(out, b)
	}
	return out
}

func main() {
	out := flag.String("o", "", "output file (default stdout); an existing file's baseline is preserved")
	note := flag.String("note", "", "free-form note attached to the current run")
	rebase := flag.Bool("rebase", false, "replace the stored baseline with the current run")
	commit := flag.String("commit", "", "commit the benchmarks were run at (e.g. git rev-parse --short HEAD)")
	flag.Parse()

	cur := &Report{
		Note:       *note,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Commit:     *commit,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: parse(bufio.NewScanner(os.Stdin)),
	}
	if len(cur.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	f := &File{Current: cur}
	if *out != "" && !*rebase {
		if prev, err := os.ReadFile(*out); err == nil {
			var old File
			if json.Unmarshal(prev, &old) == nil && old.Baseline != nil {
				f.Baseline = old.Baseline
			}
		}
	}
	if f.Baseline == nil {
		base := *cur
		if base.Note == "" {
			base.Note = "self-primed: first recorded run"
		}
		f.Baseline = &base
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
