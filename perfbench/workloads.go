package main

import (
	"time"

	"repro/internal/workload"
)

// spec is one workload: the traffic mix, the store behind the server and
// the fixed open-loop rate. Every store is a bst.NewShardedRange over
// [0, keyRange) with shards shards; keys are uniform.
type spec struct {
	name     string
	keyRange int64 // keys drawn from [0, keyRange)
	live     int   // keys bulk-loaded by MLOAD before measuring
	mix      workload.Mix
	batch    int  // ops per MBATCH request; 0 sends unbatched point requests
	durable  bool // serve a persist.Map in group-commit mode (fsync before every ack)

	// openRate is the open-loop arrival rate in ops/s, fixed here and
	// never derived at run time: about half the closed-loop capacity
	// measured on a 2-vCPU box. A fixed rate keeps the parent and the
	// change under the same offered load.
	openRate float64

	compactEvery    time.Duration // the benchmark's own Compact ticker
	checkpointEvery time.Duration // durable only: the benchmark's own Checkpoint ticker
}

const shards = 8

// workloads are the benchmark's traffic mixes. Why each exists:
//
//   - read-mostly: per-request wire and server cost dominates point ops;
//     scans exercise the wait-free RangeScanFunc over version chains that
//     concurrent updates create. The 2Mi-key set (~380 MB of heap) is
//     beyond the last-level cache. The WAL is idle, so a persist change
//     should not move this workload.
//   - churn-batched: MBATCH of 8 amortizes wire and dispatch 8x, leaving
//     tree CAS, helping, allocation, pooling and Compact as the work, on a
//     cache-resident 32Ki-key set.
//   - durable-write: WAL append and fsync wait dominate, so persist
//     changes show here and nowhere else.
var workloads = []spec{
	{
		name:         "read-mostly",
		keyRange:     4 << 20,
		live:         2 << 20,
		mix:          workload.Mix{InsertPct: 5, DeletePct: 5, ScanPct: 10, ScanWidth: 100},
		openRate:     30000,
		compactEvery: time.Second,
	},
	{
		name:         "churn-batched",
		keyRange:     64 << 10,
		live:         32 << 10,
		mix:          workload.Mix{InsertPct: 50, DeletePct: 50},
		batch:        8,
		openRate:     40000,
		compactEvery: time.Second,
	},
	{
		name:            "durable-write",
		keyRange:        1 << 20,
		live:            512 << 10,
		mix:             workload.Mix{InsertPct: 50, DeletePct: 50},
		durable:         true,
		openRate:        2000,
		compactEvery:    time.Second,
		checkpointEvery: 2 * time.Second,
	},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}
