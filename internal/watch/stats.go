package watch

import "sync/atomic"

// stats holds the follower's own counters. Deliberately separate from the
// pipeline counter set: the pipeline's deterministic counters are compared
// byte-for-byte by the bench regression gate, while these describe the
// follower's progress and are free to grow with wall-clock polling.
type stats struct {
	blocksFollowed   atomic.Uint64
	deploymentsSeen  atomic.Uint64
	upgradesDetected atomic.Uint64
	invalidations    atomic.Uint64
	reanalyses       atomic.Uint64
	replicaLag       atomic.Uint64
	watched          atomic.Uint64
}

// StatsSnapshot is the JSON shape of the follower's counters — what
// /v1/watch/stats serves and what the CI watch job uploads.
type StatsSnapshot struct {
	// Cursor is the last fully processed block.
	Cursor uint64 `json:"cursor"`
	// BlocksFollowed counts blocks fully processed (upgrade scan +
	// deployment routing + checkpoint).
	BlocksFollowed uint64 `json:"blocks_followed"`
	// DeploymentsSeen counts new contracts routed into analysis.
	DeploymentsSeen uint64 `json:"deployments_seen"`
	// UpgradesDetected counts watched-cell value changes handled.
	UpgradesDetected uint64 `json:"upgrades_detected"`
	// Invalidations counts cache tiers actually dropped (exact-hash
	// verdict, service result cache) across all upgrades.
	Invalidations uint64 `json:"invalidations"`
	// Reanalyses counts post-upgrade re-analysis runs.
	Reanalyses uint64 `json:"reanalyses"`
	// ReplicaLag is the widest head spread the replica pool has observed
	// (zero without a pool).
	ReplicaLag uint64 `json:"replica_lag"`
	// Watched is the number of live watched cells.
	Watched uint64 `json:"watched"`
}
