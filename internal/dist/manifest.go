// Package dist is the real shared-nothing execution runtime the simulated
// cluster (internal/cluster + internal/fragment) models: a coordinator
// process and one worker *process* per fragment, each worker mmapping its
// own persisted .gfds shard (internal/store) and running the compiled
// engines over it, speaking a small length-prefixed binary protocol over
// stdin/stdout pipes — unit assignment with halo data, violation batches
// and heartbeats.
//
// The coordinator layers process-level fault tolerance over the unit
// scheduler's semantics: heartbeat/deadline liveness detection, a dead
// process's units queued for the surviving slots under the same retry
// budgets and per-unit backoff, capped worker respawn from the dead slot's
// own task, typed *cluster.WorkerError causes,
// *validate.PartialError + Result.Completeness when budgets exhaust, and
// graceful degradation to the in-process fragmented engine when no worker
// process can be had at all. The package injects no faults: the chaos
// suites in internal/validate kill, stall and tear a worker from outside,
// in the test binary the coordinator re-executes, which interposes on the
// worker's stdin and stdout.
package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gfd/internal/fragment"
	"gfd/internal/graph"
)

// ManifestVersion is the manifest format version this runtime writes.
const ManifestVersion = 1

// Manifest describes one persisted fragmentation: how many workers, which
// strategy assigned node ownership, and where the per-fragment shards
// live. Shard paths are stored relative to the manifest's directory so
// the whole bundle can be moved; LoadManifest resolves them.
type Manifest struct {
	Version  int      `json:"version"`
	NumNodes int      `json:"num_nodes"`
	Workers  int      `json:"workers"`
	Strategy string   `json:"strategy"`
	Shards   []string `json:"shards"`

	strategy fragment.Strategy
}

// Owner returns the worker index owning node v — the same pure formula
// fragment.Partition used when the shards were written, reproduced from
// the manifest alone.
func (m *Manifest) Owner(v graph.NodeID) int {
	return fragment.Owner(m.strategy, v, m.NumNodes, m.Workers)
}

// WriteShards persists snap as n shards plus a manifest under dir, naming
// the shards <prefix>.<i>.gfds and the manifest <prefix>.manifest. It
// returns the manifest path. This is what `gfdgen -fragments n` calls;
// the ownership formula is fragment.Owner with the given strategy.
func WriteShards(snap *graph.Snapshot, n int, s fragment.Strategy, dir, prefix string) (string, error) {
	if n < 1 {
		n = 1
	}
	numNodes := snap.NumNodes()
	owner := make([]int, numNodes)
	for v := range owner {
		owner[v] = fragment.Owner(s, graph.NodeID(v), numNodes, n)
	}
	paths, err := fragment.SaveShards(context.Background(), snap, owner, n, dir, prefix)
	if err != nil {
		return "", err
	}
	m := &Manifest{
		Version:  ManifestVersion,
		NumNodes: numNodes,
		Workers:  n,
		Strategy: s.String(),
	}
	for _, p := range paths {
		m.Shards = append(m.Shards, filepath.Base(p))
	}
	mp := filepath.Join(dir, prefix+".manifest")
	if err := SaveManifest(mp, m); err != nil {
		return "", err
	}
	return mp, nil
}

// SaveManifest writes m as JSON at path (atomically via rename).
func SaveManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadManifest reads and validates a manifest, resolving shard paths
// against the manifest's directory.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(data, filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("dist: manifest %s: %w", path, err)
	}
	return m, nil
}

// parseManifest decodes and validates a manifest's bytes, resolving
// relative shard paths against dir.
func parseManifest(data []byte, dir string) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, err
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("version %d, want %d", m.Version, ManifestVersion)
	}
	if m.Workers < 1 || len(m.Shards) != m.Workers {
		return nil, fmt.Errorf("%d workers but %d shards", m.Workers, len(m.Shards))
	}
	if m.NumNodes < 0 {
		return nil, fmt.Errorf("negative node count")
	}
	var err error
	if m.strategy, err = fragment.ParseStrategy(m.Strategy); err != nil {
		return nil, err
	}
	for i, s := range m.Shards {
		if !filepath.IsAbs(s) {
			m.Shards[i] = filepath.Join(dir, s)
		}
	}
	return m, nil
}
