// Command benchjson converts `go test -bench` text output into a stable
// JSON document, used by CI's bench-regression job to publish
// BENCH_ci.json as a build artifact. It keeps every run (for -count > 1)
// and adds a per-benchmark summary (min/median/max ns/op) so a human — or
// a later tooling PR — can compare artifacts across commits without
// re-parsing bench text.
//
// Usage:
//
//	go test -bench . -count 3 | benchjson -out BENCH_ci.json
//	benchjson -in bench.txt -out BENCH_ci.json
//
// benchjson exits non-zero when the input contains no benchmark results,
// so a CI step cannot silently "pass" on a regex that matched nothing or
// output swallowed by a build failure.
//
// With -baseline it additionally compares the current medians against a
// committed benchjson document and emits one GitHub workflow annotation
// per benchmark (::warning beyond -tolerance, ::notice otherwise). When
// both sides carry -benchmem columns, median B/op and allocs/op are
// compared under the same tolerance — memory counters are deterministic,
// so they gate more reliably than wall time. By
// default the comparison is informational — it never changes the exit
// status. With -fail-on-regression, slowdowns beyond -tolerance become
// ::error annotations and benchjson exits non-zero after writing the
// artifact, turning the comparison into a CI gate. Reserve the gate for
// hermetic benchmarks with a generous tolerance; wall-clock ratios on
// shared runners are noisy.
//
//	go test -bench 'Rebuild' | benchjson -out BENCH_ci.json -baseline BENCH_pr6.json -tolerance 0.20
//	go test -bench 'Estimate' | benchjson -baseline BENCH_pr10.json -tolerance 2.0 -fail-on-regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "", "JSON output file (default stdout)")
	baseline := flag.String("baseline", "", "benchjson document to compare medians against (informational unless -fail-on-regression)")
	tolerance := flag.Float64("tolerance", 0.20, "fractional ns/op change beyond which a comparison becomes a ::warning (or ::error with -fail-on-regression)")
	failOnRegression := flag.Bool("fail-on-regression", false, "exit non-zero when any benchmark regresses beyond -tolerance (after writing -out)")
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		src = f
	}
	report, err := Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	if len(report.Runs) == 0 {
		log.Fatal("no benchmark results in input")
	}

	// Write the artifact before gating: a failing comparison must still
	// leave the JSON document behind for the uploaded build artifact.
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d runs of %d benchmarks -> %s\n",
			len(report.Runs), len(report.Summary), *out)
	}

	if *baseline != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		regressions := writeComparison(os.Stdout, Compare(report, base), *tolerance, *failOnRegression)
		if *failOnRegression && regressions > 0 {
			log.Fatalf("%d benchmark(s) regressed beyond %.0f%% vs %s", regressions, *tolerance*100, *baseline)
		}
	}
}
