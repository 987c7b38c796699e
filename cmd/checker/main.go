// Command checker soaks the verification harness (internal/check) for a
// time budget: it round-robins every oracle, transcript, metamorphic and
// failpoint check with fresh per-round seeds until the budget runs out,
// then emits a JSON report and exits non-zero if anything diverged.
//
//	checker -seed 2002 -budget 30s -out report.json
//
// The go test suites run the same checks for a handful of fixed rounds;
// this driver is how CI (and a curious developer) buys arbitrarily more
// coverage per unit of patience. Any reported divergence carries the
// round seed that reproduces it alone, plus a minimized counterexample.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"spatialhist/internal/check"
)

// checkReport is the per-check section of the JSON report.
type checkReport struct {
	Name       string            `json:"name"`
	Kind       string            `json:"kind"`
	Doc        string            `json:"doc"`
	Rounds     int               `json:"rounds"`
	Millis     int64             `json:"millis"`
	Divergence *check.Divergence `json:"divergence,omitempty"`
}

// report is the full JSON document the soak writes.
type report struct {
	Seed        int64         `json:"seed"`
	Budget      string        `json:"budget"`
	Started     time.Time     `json:"started"`
	Elapsed     string        `json:"elapsed"`
	Rounds      int           `json:"totalRounds"`
	Divergences int           `json:"divergences"`
	Checks      []checkReport `json:"checks"`
}

func main() {
	var (
		seed   = flag.Int64("seed", 2002, "base seed; every round derives its own reproducible seed from it")
		budget = flag.Duration("budget", 30*time.Second, "wall-clock soak budget, split round-robin across the checks")
		out    = flag.String("out", "", "write the JSON report to this file (default: stdout)")
		run    = flag.String("run", "", "comma-separated check names to soak (default: all)")
		list   = flag.Bool("list", false, "list available checks and exit")
		v      = flag.Bool("v", false, "log each completed pass")
	)
	flag.Parse()

	all := check.All()
	if *list {
		for _, c := range all {
			fmt.Printf("%-26s %-12s %s\n", c.Name, c.Kind, c.Doc)
		}
		return
	}
	checks := all
	if *run != "" {
		checks = checks[:0]
		for _, name := range strings.Split(*run, ",") {
			c, ok := check.Named(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "checker: unknown check %q (use -list)\n", name)
				os.Exit(2)
			}
			checks = append(checks, c)
		}
	}

	started := time.Now()
	deadline := started.Add(*budget)
	reports := make([]checkReport, len(checks))
	for i, c := range checks {
		reports[i] = checkReport{Name: c.Name, Kind: string(c.Kind), Doc: c.Doc}
	}

	divergences := 0
	totalRounds := 0
	spent := make([]time.Duration, len(checks))
	// Every check gets at least one round even under a zero budget; after
	// that, passes continue while the budget lasts. A diverged check stops
	// soaking (its first minimized counterexample is the actionable one)
	// while the others keep going.
	for pass := 0; ; pass++ {
		ranAny := false
		for i, c := range checks {
			if reports[i].Divergence != nil {
				continue
			}
			if pass > 0 && !time.Now().Before(deadline) {
				continue
			}
			ranAny = true
			roundStart := time.Now()
			d := c.Run(check.RoundSeed(*seed, pass))
			spent[i] += time.Since(roundStart)
			reports[i].Millis = spent[i].Milliseconds()
			reports[i].Rounds++
			totalRounds++
			if d != nil {
				divergences++
				reports[i].Divergence = d
				fmt.Fprintf(os.Stderr, "checker: DIVERGENCE in %s:\n%s\n", c.Name, d)
			}
		}
		if !ranAny || !time.Now().Before(deadline) {
			break
		}
		if *v {
			fmt.Fprintf(os.Stderr, "checker: pass %d complete (%d rounds, %s elapsed)\n",
				pass+1, totalRounds, time.Since(started).Round(time.Millisecond))
		}
	}

	rep := report{
		Seed:        *seed,
		Budget:      budget.String(),
		Started:     started.UTC(),
		Elapsed:     time.Since(started).Round(time.Millisecond).String(),
		Rounds:      totalRounds,
		Divergences: divergences,
		Checks:      reports,
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "checker: encoding report: %v\n", err)
		os.Exit(2)
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "checker: writing report: %v\n", err)
			os.Exit(2)
		}
	} else {
		os.Stdout.Write(blob)
	}

	for _, cr := range reports {
		status := "ok"
		if cr.Divergence != nil {
			status = "DIVERGED"
		}
		fmt.Fprintf(os.Stderr, "checker: %-26s %-12s %4d rounds %6dms  %s\n",
			cr.Name, cr.Kind, cr.Rounds, cr.Millis, status)
	}
	fmt.Fprintf(os.Stderr, "checker: %d rounds in %s, %d divergence(s)\n", totalRounds, rep.Elapsed, divergences)
	if divergences > 0 {
		os.Exit(1)
	}
}
