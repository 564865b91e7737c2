// gfdbench runs the paper's experiment sweeps (Section 7) and prints
// paper-style tables. Each -exp value corresponds to a figure or table of
// the evaluation; `-exp all` runs everything.
//
// Usage:
//
//	gfdbench -exp fig5a          # time vs n on the DBpedia stand-in
//	gfdbench -exp fig9 -scale 400
//	gfdbench -exp all -scale 200 # quick full sweep
//
// Fig. 5/6/8 cells are the modeled n-worker span, with the measured wall
// beside each. These are reproduction scripts, not a performance gate:
// the repository's benchmark is benchmark/ (see benchmark/README.md). The
// README's "Reproducing the evaluation" section records paper-vs-measured
// per figure.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"gfd/internal/exp"
)

// order is every experiment in `-exp all` order.
var order = []string{"fig5a", "fig5b", "fig5c", "fig5sigma", "fig5q", "fig5comm",
	"fig6", "fig7", "fig8", "fig9", "speedup"}

// ownWorkload marks the experiments that build their own graph and rules
// and would silently ignore file inputs: fig7 injects structural errors
// for its fixed rules, fig8 sweeps generated skew, fig9 scores detection
// against the noise it injects. fig6 sweeps |G|, so it takes a rule file
// but a graph file would make every row the same graph.
var ownWorkload = map[string]bool{"fig7": true, "fig8": true, "fig9": true}

func main() {
	var (
		which      = flag.String("exp", "all", strings.Join(order, "|")+"|all")
		scale      = flag.Int("scale", 250, "dataset scale")
		rules      = flag.Int("rules", 8, "rule count ‖Σ‖")
		qsize      = flag.Int("q", 4, "pattern size |Q| (nodes)")
		seed       = flag.Int64("seed", 42, "deterministic seed")
		twoFrac    = flag.Float64("two-comp", 0.3, "fraction of two-component rules")
		graphPath  = flag.String("graph", "", "run experiments over this graph file (text or .gfds snapshot) instead of generating one")
		rulePath   = flag.String("rulefile", "", "parse Σ from this rule file instead of mining")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file after the run (go tool pprof)")
	)
	flag.Parse()

	// exp.Config would replace a count below 1 with its default and run,
	// and a fraction outside [0, 1] names no share of the rules.
	for _, c := range []struct {
		ok  bool
		msg string
	}{
		{*scale >= 1, fmt.Sprintf("-scale %d: a dataset needs at least one entity", *scale)},
		{*rules >= 1, fmt.Sprintf("-rules %d: Σ needs at least one rule", *rules)},
		{*qsize >= 1, fmt.Sprintf("-q %d: a pattern needs at least one node", *qsize)},
		{*twoFrac >= 0 && *twoFrac <= 1, fmt.Sprintf("-two-comp %v: a fraction lies in [0, 1]", *twoFrac)},
	} {
		if !c.ok {
			fmt.Fprintf(os.Stderr, "gfdbench: %s\n", c.msg)
			os.Exit(2)
		}
	}

	// Resolve and check every requested experiment before running any.
	names := []string{strings.ToLower(*which)}
	if names[0] == "all" {
		names = order
	}
	for _, name := range names {
		if !slices.Contains(order, name) {
			fmt.Fprintf(os.Stderr, "gfdbench: unknown experiment %q (want %s or all)\n", name, strings.Join(order, ", "))
			os.Exit(2)
		}
		if *graphPath != "" && (ownWorkload[name] || name == "fig6") {
			fmt.Fprintf(os.Stderr, "gfdbench: -graph does not apply to %s, which generates its own graphs\n", name)
			os.Exit(2)
		}
		if *rulePath != "" && ownWorkload[name] {
			fmt.Fprintf(os.Stderr, "gfdbench: -rulefile does not apply to %s, which builds its own rules\n", name)
			os.Exit(2)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gfdbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "gfdbench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gfdbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retention, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "gfdbench: -memprofile: %v\n", err)
			}
		}()
	}

	// Fail early and readably on bad file inputs; the harness itself
	// panics on unreadable paths.
	for _, p := range []string{*graphPath, *rulePath} {
		if p != "" {
			if _, err := os.Stat(p); err != nil {
				fmt.Fprintf(os.Stderr, "gfdbench: %v\n", err)
				os.Exit(2)
			}
		}
	}

	base := func(dataset string) exp.Config {
		return exp.Config{
			Dataset: dataset, Scale: *scale, Rules: *rules,
			PatternSize: *qsize, TwoCompFrac: *twoFrac, Seed: *seed,
			GraphPath: *graphPath, RulesPath: *rulePath,
		}
	}

	run := map[string]func(){
		"fig5a": func() { fmt.Println(exp.Fig5VaryN(base("dbpedia"), nil)) },
		"fig5b": func() { fmt.Println(exp.Fig5VaryN(base("yago2"), nil)) },
		"fig5c": func() { fmt.Println(exp.Fig5VaryN(base("pokec"), nil)) },
		"fig5sigma": func() {
			for _, ds := range []string{"dbpedia", "yago2", "pokec"} {
				fmt.Println(exp.Fig5VarySigma(base(ds), nil))
			}
		},
		"fig5q": func() {
			for _, ds := range []string{"dbpedia", "yago2", "pokec"} {
				fmt.Println(exp.Fig5VaryQ(base(ds), nil))
			}
		},
		"fig5comm": func() {
			for _, ds := range []string{"dbpedia", "yago2", "pokec"} {
				fmt.Println(exp.Fig5Comm(base(ds), nil))
			}
		},
		"fig6": func() {
			c := base("synthetic")
			c.Scale = *scale / 2
			fmt.Println(exp.Fig6ScaleG(c, nil))
		},
		"fig7": func() {
			fmt.Println("Fig 7 — real-life GFDs on the YAGO2 stand-in")
			fmt.Printf("%-28s%10s%12s%8s\n", "rule", "injected", "violations", "caught")
			for _, f := range exp.Fig7RealLife(*scale, 5, *seed) {
				fmt.Printf("%-28s%10d%12d%8d\n", f.Rule, f.Injected, f.Violations, f.Caught)
			}
			fmt.Println()
		},
		"fig8": func() { fmt.Println(exp.Fig8Skew(base("synthetic"), nil)) },
		"fig9": func() {
			c := base("yago2")
			c.TwoCompFrac = 0.5
			c.Rules = max(*rules, 12)
			c.NoiseRate = 0.05
			fmt.Println("Fig 9 — accuracy and time vs baselines (YAGO2 stand-in)")
			fmt.Printf("%-12s%8s%8s%8s%12s\n", "model", "recall", "prec.", "rules", "time (ms)")
			for _, r := range exp.Fig9Accuracy(c) {
				fmt.Println(fig9Row(r))
			}
			fmt.Println()
		},
		"speedup": func() {
			fmt.Println("Exp-1 — parallel speedup n=4 -> n=20 (of the modeled span)")
			for _, ds := range []string{"dbpedia", "yago2", "pokec"} {
				s := exp.SpeedupSummary(exp.Fig5VaryN(base(ds), []int{4, 20}))
				fmt.Printf("%-10s", ds)
				for _, alg := range exp.SixAlgorithms {
					fmt.Printf("  %s=%.2fx", alg, s[alg])
				}
				fmt.Println()
			}
			fmt.Println()
		},
	}

	for _, name := range names {
		run[name]()
	}
}

// fig9Row formats one Fig. 9 row under its header: the time in
// milliseconds in a fixed-width numeric column, so no duration's width
// runs it into the rules column.
func fig9Row(r exp.AccuracyRow) string {
	return fmt.Sprintf("%-12s%8.2f%8.2f%8d%12.1f", r.Model, r.Recall, r.Precision, r.Rules, r.Time.Seconds()*1e3)
}
