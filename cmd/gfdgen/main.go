// gfdgen generates benchmark inputs: synthetic or dataset-stand-in graphs,
// mined GFD rule sets, and noise injection with ground truth.
//
// Usage:
//
//	gfdgen -dataset yago2 -scale 500 -out g.graph [-rules r.gfd -nrules 10]
//	       [-noise 0.02] [-seed 1] [-snapshot g.gfds] [-fragments 4 [-strategy hash]]
//
// With -rules set, rules are mined on the *clean* graph before noise is
// injected, matching the evaluation methodology of the paper (Section 7).
// With -snapshot set, the final graph (after noise) is also frozen and
// saved in the binary snapshot format, which gfdcheck and gfdbench open
// without rebuilding; at least one of -out / -snapshot is required.
// With -fragments n (requires -snapshot), the frozen graph is additionally
// persisted as n per-fragment shards plus a shard manifest next to the
// snapshot — the input of gfdcheck -mode dist, whose worker processes each
// mmap their own shard.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gfd"
	"gfd/internal/gen"
	"gfd/internal/graph"
)

func main() {
	var (
		dataset = flag.String("dataset", "synthetic", "synthetic | yago2 | dbpedia | pokec")
		scale   = flag.Int("scale", 500, "dataset scale (entities; synthetic: nodes = 10x)")
		out     = flag.String("out", "", "graph text output file")
		snap    = flag.String("snapshot", "", "binary snapshot output file (.gfds; freeze + save)")
		rules   = flag.String("rules", "", "also mine rules into this file")
		nrules  = flag.Int("nrules", 10, "rules to mine")
		qsize   = flag.Int("q", 5, "pattern size |Q| in nodes")
		twoFrac = flag.Float64("two-comp", 0.3, "fraction of two-component rules")
		noise   = flag.Float64("noise", 0, "attribute-noise rate to inject after mining")
		skew    = flag.Float64("skew", 0.5, "degree skew for synthetic graphs")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		frags   = flag.Int("fragments", 0, "also persist the snapshot as this many per-fragment shards + manifest (requires -snapshot)")
		strat   = flag.String("strategy", "hash", "shard ownership strategy: hash | range")
	)
	flag.Parse()
	if *out == "" && *snap == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *scale < 1 {
		fatal(fmt.Errorf("-scale %d: a dataset needs at least one entity", *scale))
	}
	if *frags < 0 {
		fatal(fmt.Errorf("-fragments %d: give a shard count, or 0 for none", *frags))
	}
	if *frags > 0 && *snap == "" {
		fatal(fmt.Errorf("-fragments requires -snapshot (shards live next to the snapshot file)"))
	}

	var g *graph.Graph
	switch *dataset {
	case "yago2":
		g = gen.YAGO2Like(gen.DatasetConfig{Scale: *scale, Seed: *seed})
	case "dbpedia":
		g = gen.DBpediaLike(gen.DatasetConfig{Scale: *scale, Seed: *seed})
	case "pokec":
		g = gen.PokecLike(gen.DatasetConfig{Scale: *scale, Seed: *seed})
	case "synthetic":
		g = gen.Synthetic(gen.SyntheticConfig{Nodes: *scale * 10, Edges: *scale * 20, Skew: *skew, Seed: *seed})
	default:
		fatal(fmt.Errorf("unknown dataset %q", *dataset))
	}
	fmt.Printf("generated %s: %d nodes, %d edges\n", *dataset, g.NumNodes(), g.NumEdges())

	if *rules != "" {
		set := gfd.MineGFDs(g, gfd.MineConfig{
			NumRules: *nrules, PatternSize: *qsize, TwoCompFrac: *twoFrac, Seed: *seed + 2,
		})
		if err := writeRules(*rules, set); err != nil {
			fatal(err)
		}
		fmt.Printf("mined %d rules -> %s\n", set.Len(), *rules)
	}

	if *noise > 0 {
		errs := gen.Inject(g, gen.NoiseConfig{Rate: *noise, Seed: *seed + 1})
		fmt.Printf("injected %d errors\n", len(errs))
	}

	if *out != "" {
		if err := writeGraph(*out, g); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *snap != "" {
		if err := gfd.SaveSnapshot(context.Background(), g, *snap); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote snapshot %s\n", *snap)
	}
	if *frags > 0 {
		dir := filepath.Dir(*snap)
		prefix := strings.TrimSuffix(filepath.Base(*snap), ".gfds")
		mp, err := gfd.WriteShards(g, *frags, *strat, dir, prefix)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d %s-partitioned shards + manifest %s\n", *frags, *strat, mp)
	}
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return graph.Write(f, g)
}

func writeRules(path string, set *gfd.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gfd.WriteRules(f, set)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gfdgen:", err)
	os.Exit(2)
}
