package metg

import "time"

// This file implements the paper's §4 relationship between METG and
// the node count at which strong scaling stops paying off. Its weak
// scaling counterpart needs no code: the smallest granularity that
// weak-scales to n nodes is, by definition, METG at n nodes.

// StrongScalingLimit returns the largest node count (≤ maxNodes,
// scanned in powers of two) at which a workload whose task granularity
// is granularityAtOne on a single node still runs at the target
// efficiency. Strong scaling divides the same total work over more
// cores, so granularity shrinks as 1/nodes; scaling stops where the
// shrinking granularity crosses the (typically rising) METG curve —
// the paper's worked example is a 2^18 problem strong-scaling to 64
// nodes (§4, Figure 5).
func StrongScalingLimit(granularityAtOne time.Duration, metgAt func(nodes int) time.Duration, maxNodes int) int {
	limit := 0
	for nodes := 1; nodes <= maxNodes; nodes *= 2 {
		granularity := granularityAtOne / time.Duration(nodes)
		if granularity >= metgAt(nodes) {
			limit = nodes
		} else {
			break
		}
	}
	return limit
}
