package dist

import (
	"sync/atomic"

	"matopt/internal/engine"
)

// relation is the operator table's relation plus the runtime's recovery
// state: its tuples are partitioned across the run's shards exactly as
// engine.Relation documents.
type relation struct {
	*engine.Relation

	// lost marks the relation's shard data as gone (an injected
	// node-loss fault): the scheduler must recompute it from lineage
	// before any further consumer runs. The payload is deliberately not
	// zeroed — a consumer that already snapshotted the relation before
	// the loss keeps reading intact data, exactly as a consumer that
	// had already fetched the shard's pages would on a real cluster.
	lost atomic.Bool
}

// markLost flags the relation's resident data as lost.
func (rel *relation) markLost() { rel.lost.Store(true) }

// isLost reports whether the relation's resident data was lost.
func (rel *relation) isLost() bool { return rel.lost.Load() }
