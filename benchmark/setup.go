package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"gfd"
	"gfd/internal/dist"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/store"
)

// Artifact file names inside a setup directory. The measure process
// receives only these files — never the seed or the generator.
const (
	graphFile   = "graph.gfds"
	rulesFile   = "rules.gfd"
	updatesFile = "updates.json"
	oracleFile  = "oracle.json"
	shardPrefix = "shard"
)

// oracle is what setup computed with the sequential engine on a fresh
// freeze, plus the input sizes the fingerprint reports.
type oracle struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	Rules    int    `json:"rules"`
	Workers  int    `json:"workers"`
	// Vio is Vio(Σ, G) of the persisted graph.
	Vio vioSet `json:"vio"`
	// Final is Vio(Σ, G) after the whole update stream (kb_updates only).
	Final vioSet `json:"final"`
}

// runSetup is the -phase setup process: generate, freeze, persist every
// artifact into dir, compute the oracle. Deterministic per (workload, seed,
// scale, batches, workers): two runs write the same bytes.
func runSetup(w *workload, seed int64, scale float64, batches, workers int, dir string) error {
	ctx := context.Background()
	g, set := w.build(seed, scale)
	snap := g.Freeze()
	if err := store.Save(ctx, snap, filepath.Join(dir, graphFile)); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	if err := writeRules(filepath.Join(dir, rulesFile), set); err != nil {
		return err
	}
	or := oracle{
		Workload: w.name, Seed: seed, Nodes: g.NumNodes(), Edges: g.NumEdges(),
		Rules: set.Len(), Workers: workers,
	}
	var err error
	if or.Vio, err = sequentialVio(ctx, g, set); err != nil {
		return err
	}
	if or.Vio.Count == 0 {
		return errors.New("oracle is empty: the workload is vacuous")
	}
	if w.shards {
		if _, err := dist.WriteShards(snap, workers, fragment.Hash, dir, shardPrefix); err != nil {
			return fmt.Errorf("write shards: %w", err)
		}
	}
	if w.updates {
		stream := genUpdates(g, batches, seed)
		if err := writeJSON(filepath.Join(dir, updatesFile), stream); err != nil {
			return err
		}
		// The final oracle is a sequential Detect on a fresh freeze of a
		// graph the stream was applied to directly, bypassing every overlay.
		for _, b := range stream {
			for _, u := range b {
				switch u.Op {
				case "node":
					g.AddNode(u.Label, u.Attrs.Clone())
				case "edge":
					if err := g.AddEdge(u.From, u.To, u.Label); err != nil {
						return fmt.Errorf("update stream: %w", err)
					}
				default:
					g.SetAttr(u.From, u.Attr, u.Value)
				}
			}
		}
		if or.Final, err = sequentialVio(ctx, g, set); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, oracleFile), or)
}

// sequentialVio digests a sequential-engine Detect over g's current version.
func sequentialVio(ctx context.Context, g *graph.Graph, set *gfd.Set) (vioSet, error) {
	var vs vioSet
	sess, err := gfd.NewSession(g)
	if err != nil {
		return vs, err
	}
	prep, err := sess.Prepare(set)
	if err != nil {
		return vs, err
	}
	res, err := prep.Detect(ctx, gfd.Options{Engine: gfd.EngineSequential})
	if err != nil {
		return vs, fmt.Errorf("oracle detect: %w", err)
	}
	vs.addReport(newRuleHashes(set), res.Violations)
	return vs, nil
}

func writeRules(path string, set *gfd.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gfd.WriteRules(f, set); err != nil {
		f.Close()
		return fmt.Errorf("write rules: %w", err)
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// artifacts is what the measure process loads from a setup directory.
type artifacts struct {
	dir      string
	graph    string // .gfds path
	manifest string // shard manifest path (kb_dist)
	// mappedBytes is the size of the snapshot file a session maps: memory
	// it retains that is not on the Go heap.
	mappedBytes uint64
	set         *gfd.Set
	hashes      ruleHashes
	oracle      oracle
	updates     [][]update
}

func loadArtifacts(dir string) (*artifacts, error) {
	a := &artifacts{
		dir:      dir,
		graph:    filepath.Join(dir, graphFile),
		manifest: filepath.Join(dir, shardPrefix+".manifest"),
	}
	if err := readJSON(filepath.Join(dir, oracleFile), &a.oracle); err != nil {
		return nil, err
	}
	fi, err := os.Stat(a.graph)
	if err != nil {
		return nil, err
	}
	a.mappedBytes = uint64(fi.Size())
	f, err := os.Open(filepath.Join(dir, rulesFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if a.set, err = gfd.ParseRules(f); err != nil {
		return nil, fmt.Errorf("parse rules: %w", err)
	}
	a.hashes = newRuleHashes(a.set)
	// Only a workload with an update stream has the file.
	if err := readJSON(filepath.Join(dir, updatesFile), &a.updates); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return a, nil
}
