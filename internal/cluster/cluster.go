// Package cluster distributes trace-replay sweeps across a fleet of
// jrpmd workers. A sweep grid — recorded traces × hydra configurations —
// is embarrassingly parallel: every (trace, config) cell is a pure
// replay of immutable recorded bytes. The coordinator cuts the grid
// into shards of one trace × one store geometry (the unit one
// comparator-bank pass serves), puts them on one shared queue, ships
// each recording to a worker content-addressed the first time that
// worker answers a shard of it with trace_missing, and merges shard
// results into exactly what trace.Sweep would have produced locally — a
// property enforced at runtime by re-executing sentinel shards on a
// second worker and comparing the canonical encodings byte for byte.
//
// The scheduler is fault-tolerant: failed shards retry on another
// worker with exponential backoff and jitter, a per-worker circuit
// breaker stops hammering a dead worker, a hung worker is cut off by
// the shard timeout, a worker's 4xx answer becomes failed rows rather
// than a retry, and when no worker is reachable the grid degrades
// gracefully to local execution. The worker set comes from a
// fleet.Membership, a fixed list or a registry, which the scheduler
// re-snapshots during the sweep, admitting workers that join mid-flight
// and retrying the in-flight shards of workers that die. See DESIGN.md
// "Distributed trace-replay sweeps" and "Fleet".
package cluster

import (
	"errors"

	"jrpm"
	"jrpm/internal/annotate"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/profile"
)

// ErrNoWorkers is wrapped by Sweep when every configured worker was
// excluded (unreachable or refused) and local fallback is disabled.
var ErrNoWorkers = errors.New("cluster: no usable workers")

// ErrDeterminism is wrapped by Sweep when a sentinel shard re-executed
// on a second worker produced different canonical bytes — a worker is
// returning nondeterministic or corrupted results.
var ErrDeterminism = errors.New("cluster: sentinel determinism check failed")

// GridTrace is one recording in a sweep grid: the source program it was
// recorded from and the raw trace bytes. The content address (SHA-256 of
// Data) is computed by the coordinator; workers compile Source
// themselves (compilation is deterministic, pinned by the trace header's
// program hash) so recordings ship without their programs.
type GridTrace struct {
	Name   string
	Source string
	Data   []byte
}

// Grid is a full sweep: every trace replayed under every configuration.
// Opts supplies the compile-stage options (annotation policy, optimizer)
// and the run-stage tracer/selection policies shared by all cells; each
// Configs entry is the machine under analysis. Opts.Cfg is ignored.
type Grid struct {
	Traces  []GridTrace
	Configs []hydra.Config
	Opts    jrpm.Options
}

// VersionInfo is the body of GET /v1/version: enough for a coordinator
// to refuse a mixed-format worker with a clear error instead of a
// decode failure deep inside a shard.
type VersionInfo struct {
	Module      string `json:"module"`
	TraceFormat int    `json:"trace_format"`
	Go          string `json:"go,omitempty"`
}

// ShardRequest is the body of POST /v1/shards: replay the worker-cached
// recording TraceKey under Configs. Source and the compile-stage options
// identify the program; the run-stage options are sent pre-normalized
// and used verbatim so local and remote replays agree bit for bit.
type ShardRequest struct {
	TraceKey string                `json:"trace_key"`
	Source   string                `json:"source"`
	Optimize bool                  `json:"optimize"`
	Annot    annotate.Options      `json:"annot"`
	Tracer   core.Options          `json:"tracer"`
	Select   profile.SelectOptions `json:"select"`
	Configs  []hydra.Config        `json:"configs"`
}

// ShardResponse is the body of a successful POST /v1/shards.
type ShardResponse struct {
	Outcomes []OutcomeRow `json:"outcomes"`
}

// Result is a completed cluster sweep. Outcomes is indexed
// [trace][config], congruent with Grid.Traces × Grid.Configs, and every
// row is exactly what EncodeOutcome(trace.Sweep(...)) yields locally.
type Result struct {
	Outcomes [][]OutcomeRow
	// Degraded reports that no worker was reachable and the whole grid
	// ran locally.
	Degraded bool
	Metrics  Snapshot
}
