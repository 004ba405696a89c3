// Package collective generates dependency-structured collective
// communication workloads — the traffic of distributed training over
// RoCEv2 — on top of the packet simulator: ring and tree allreduce,
// all-to-all, and parameter-server incast. Unlike the open-loop Poisson
// workloads of internal/workload, a collective is a DAG of transfers
// with barrier semantics: step N+1's flows start only when every flow of
// step N has delivered its last byte. The metric is therefore the
// completion time of the collective (per iteration and end to end), not
// per-flow FCT — one straggling flow delays every rank.
package collective

import "fmt"

// Pattern names a collective communication pattern.
type Pattern string

// The patterns the generator produces.
const (
	// Ring is chunked ring allreduce: 2(N-1) steps per chunk round, each
	// step every rank sending its segment to the next rank. Bandwidth-
	// optimal; latency scales with N.
	Ring Pattern = "ring"
	// Tree is binomial-tree allreduce: a reduce sweep up the tree then a
	// broadcast sweep down. log2(N) depth; the root's links carry the
	// full message each sweep.
	Tree Pattern = "tree"
	// AllToAll is the transpose: every rank sends an equal share to
	// every other rank, in chunk rounds.
	AllToAll Pattern = "alltoall"
	// PS is parameter-server incast: every worker pushes its gradient to
	// one server rank, then pulls the updated model back — the classic
	// N-to-1 incast followed by 1-to-N fanout.
	PS Pattern = "ps"
)

// ParsePattern resolves a pattern name.
func ParsePattern(s string) (Pattern, error) {
	switch Pattern(s) {
	case Ring, Tree, AllToAll, PS:
		return Pattern(s), nil
	}
	return "", fmt.Errorf("collective: unknown pattern %q (want ring, tree, alltoall or ps)", s)
}

// Config sizes one collective operation.
type Config struct {
	Pattern Pattern

	// Participants is the number of ranks taking part (workers, for PS;
	// the server is an extra rank). Minimum 2.
	Participants int

	// MessageBytes is the per-rank payload: the gradient/tensor each
	// rank contributes (allreduce, PS) or the total each rank scatters
	// (all-to-all).
	MessageBytes int64

	// Chunks pipelines the message in sequential rounds: each round
	// moves 1/Chunks of the payload through the full pattern. Zero or
	// one disables chunking.
	Chunks int

	// Iterations repeats the collective back to back (training steps).
	// Zero means one.
	Iterations int
}

// Filled returns the configuration with defaults applied.
func (c Config) Filled() Config {
	if c.Pattern == "" {
		c.Pattern = Ring
	}
	if c.Participants < 2 {
		c.Participants = 2
	}
	if c.MessageBytes <= 0 {
		c.MessageBytes = 1 << 20
	}
	if c.Chunks < 1 {
		c.Chunks = 1
	}
	if c.Iterations < 1 {
		c.Iterations = 1
	}
	return c
}

// Ranks returns how many hosts the collective needs: the participants,
// plus the server rank for the PS pattern (always the last rank).
func (c Config) Ranks() int {
	c = c.Filled()
	if c.Pattern == PS {
		return c.Participants + 1
	}
	return c.Participants
}

// Transfer is one point-to-point send within a step: rank indices and a
// byte count.
type Transfer struct {
	From  int
	To    int
	Bytes int64
}

// Step is a set of transfers that start together; the step completes
// when the last of them delivers its final byte.
type Step []Transfer

// Steps expands one iteration of the collective into its dependency
// chain: a slice of steps, each a set of concurrent transfers. The
// expansion is pure — same config, same steps — so every replay moves
// the same bytes between the same ranks.
func Steps(cfg Config) []Step {
	c := cfg.Filled()
	switch c.Pattern {
	case Ring:
		return ringSteps(c)
	case Tree:
		return treeSteps(c)
	case AllToAll:
		return allToAllSteps(c)
	case PS:
		return psSteps(c)
	}
	panic("collective: unknown pattern " + string(c.Pattern))
}

// ceilDiv splits total into n near-equal positive shares.
func ceilDiv(total int64, n int64) int64 {
	share := (total + n - 1) / n
	if share < 1 {
		share = 1
	}
	return share
}

// ringSteps: per chunk round, 2(N-1) steps. The first N-1 steps are the
// reduce-scatter (each rank forwards a partial segment to its successor);
// the next N-1 the allgather (each rank forwards a reduced segment).
// Every step moves one segment of MessageBytes/(N*Chunks) per rank.
func ringSteps(c Config) []Step {
	n := c.Participants
	seg := ceilDiv(c.MessageBytes, int64(n)*int64(c.Chunks))
	var steps []Step
	for chunk := 0; chunk < c.Chunks; chunk++ {
		for s := 0; s < 2*(n-1); s++ {
			step := make(Step, 0, n)
			for r := 0; r < n; r++ {
				step = append(step, Transfer{From: r, To: (r + 1) % n, Bytes: seg})
			}
			steps = append(steps, step)
		}
	}
	return steps
}

// treeSteps: per chunk round, a binomial reduce toward rank 0 followed by
// the mirrored broadcast. At reduce depth k, rank i with i mod 2^(k+1) ==
// 2^k sends its (partially reduced) chunk — the full MessageBytes/Chunks,
// tree allreduce is latency-optimal, not bandwidth-optimal — to i - 2^k.
func treeSteps(c Config) []Step {
	n := c.Participants
	payload := ceilDiv(c.MessageBytes, int64(c.Chunks))
	var reduce []Step
	for k := 1; k < n; k *= 2 {
		var step Step
		for i := k; i < n; i += 2 * k {
			if i%(2*k) == k {
				step = append(step, Transfer{From: i, To: i - k, Bytes: payload})
			}
		}
		if len(step) > 0 {
			reduce = append(reduce, step)
		}
	}
	var steps []Step
	for chunk := 0; chunk < c.Chunks; chunk++ {
		steps = append(steps, reduce...)
		// Broadcast: the reduce sweep reversed, directions flipped.
		for s := len(reduce) - 1; s >= 0; s-- {
			step := make(Step, 0, len(reduce[s]))
			for _, t := range reduce[s] {
				step = append(step, Transfer{From: t.To, To: t.From, Bytes: t.Bytes})
			}
			steps = append(steps, step)
		}
	}
	return steps
}

// allToAllSteps: per chunk round, one step in which every ordered rank
// pair exchanges MessageBytes/((N-1)*Chunks) — the full transpose hits
// the fabric at once, which is the point of the pattern.
func allToAllSteps(c Config) []Step {
	n := c.Participants
	share := ceilDiv(c.MessageBytes, int64(n-1)*int64(c.Chunks))
	var steps []Step
	for chunk := 0; chunk < c.Chunks; chunk++ {
		step := make(Step, 0, n*(n-1))
		for src := 0; src < n; src++ {
			for off := 1; off < n; off++ {
				step = append(step, Transfer{From: src, To: (src + off) % n, Bytes: share})
			}
		}
		steps = append(steps, step)
	}
	return steps
}

// psSteps: per chunk round, a push step (every worker sends its gradient
// share to the server rank N) then a pull step (the server fans the
// update back out) — the N-to-1 incast and its mirror.
func psSteps(c Config) []Step {
	n := c.Participants
	server := n // the extra rank
	share := ceilDiv(c.MessageBytes, int64(c.Chunks))
	var steps []Step
	for chunk := 0; chunk < c.Chunks; chunk++ {
		push := make(Step, 0, n)
		pull := make(Step, 0, n)
		for w := 0; w < n; w++ {
			push = append(push, Transfer{From: w, To: server, Bytes: share})
			pull = append(pull, Transfer{From: server, To: w, Bytes: share})
		}
		steps = append(steps, push, pull)
	}
	return steps
}
