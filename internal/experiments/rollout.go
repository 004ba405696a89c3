package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/stats"
	"rocc/internal/topology"
)

// MixShare is one protocol's slice of a mixed-protocol fabric.
type MixShare struct {
	Proto Protocol
	Frac  float64
}

// ParseMixSpec parses a "proto:frac,proto:frac" mix description (the
// CLI's -mix flag), e.g. "rocc:0.5,dcqcn:0.5". Fractions are normalized
// to sum to 1; a bare protocol name means weight 1. Protocol names go
// through ParseProtocol, so the usual aliases work.
func ParseMixSpec(spec string) ([]MixShare, error) {
	var shares []MixShare
	seen := make(map[Protocol]bool)
	total := 0.0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, fracStr, hasFrac := strings.Cut(part, ":")
		frac := 1.0
		if hasFrac {
			f, err := strconv.ParseFloat(strings.TrimSpace(fracStr), 64)
			if err != nil {
				return nil, fmt.Errorf("mix %q: bad fraction %q", part, fracStr)
			}
			if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("mix %q: fraction must be >= 0", part)
			}
			frac = f
		}
		proto, err := ParseProtocol(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		if seen[proto] {
			return nil, fmt.Errorf("mix: protocol %s listed twice", proto)
		}
		seen[proto] = true
		shares = append(shares, MixShare{Proto: proto, Frac: frac})
		total += frac
	}
	if len(shares) == 0 {
		return nil, fmt.Errorf("mix: empty spec")
	}
	if total <= 0 {
		return nil, fmt.Errorf("mix: fractions sum to zero")
	}
	if math.IsInf(total, 1) {
		return nil, fmt.Errorf("mix: fractions sum past the float range")
	}
	for i := range shares {
		shares[i].Frac /= total
	}
	return shares, nil
}

// AssignShares deterministically assigns n slots to the shares'
// protocols by cumulative rounding, so a 0.25/0.75 split of 8 slots is
// exactly 2 and 6. Slots are contiguous per protocol; ECMP hashing
// spreads the flows regardless of slot order.
func AssignShares(shares []MixShare, n int) []Protocol {
	out := make([]Protocol, n)
	cum, prev := 0.0, 0
	for k, s := range shares {
		cum += s.Frac
		hi := int(math.Round(cum * float64(n)))
		if k == len(shares)-1 {
			hi = n
		}
		for i := prev; i < hi && i < n; i++ {
			out[i] = s.Proto
		}
		if hi > prev {
			prev = hi
		}
	}
	return out
}

// RoCCShares builds the incremental-rollout mix: a frac slice of RoCC
// senders sharing the fabric with (1-frac) DCQCN senders. Zero-weight
// protocols are omitted so frac 0 and 1 are true single-protocol runs.
func RoCCShares(frac float64) []MixShare {
	var shares []MixShare
	if frac > 0 {
		shares = append(shares, MixShare{Proto: ProtoRoCC, Frac: frac})
	}
	if frac < 1 {
		shares = append(shares, MixShare{Proto: ProtoDCQCN, Frac: 1 - frac})
	}
	return shares
}

// DefaultRolloutFracs is the RoCC-fraction sweep the rollout experiment
// reports: from an all-DCQCN fabric to an all-RoCC one.
var DefaultRolloutFracs = []float64{0, 0.25, 0.5, 0.75, 1}

// RolloutConfig parameterizes one incremental-rollout run: senders
// behind one fat-tree edge push persistent flows through the shared
// core bottleneck to the other edge, split across protocols by Shares.
type RolloutConfig struct {
	Shares       []MixShare
	Seed         int64
	Duration     sim.Time // default 20 ms
	HostsPerEdge int      // senders (= receivers); default 8
	FCTBytes     int64    // finite-flow size for the FCT probe; default 1 MB
}

// rolloutLinkGbps is the host link rate of the rollout fabric.
const rolloutLinkGbps = 40

func (c *RolloutConfig) fill() {
	if c.Duration <= 0 {
		c.Duration = 20 * sim.Millisecond
	}
	if c.HostsPerEdge <= 0 {
		c.HostsPerEdge = 8
	}
	if c.FCTBytes <= 0 {
		c.FCTBytes = 1 << 20
	}
}

// RolloutRow is one protocol's outcome in a mixed run: goodput and
// within-protocol Jain fairness over the persistent flows' steady-state
// window, plus FCT of the finite probe flows injected mid-run.
type RolloutRow struct {
	Proto     Protocol
	Share     float64 // configured fraction of senders
	Flows     int
	MeanGbps  float64 // mean per-flow goodput over the steady window
	Jain      float64 // fairness across this protocol's flows
	FCTMeanMs float64 // mean FCT of the probe flows (0 if none finished)
	FCTP99Ms  float64
}

// RunRollout executes one incremental-rollout experiment: a 2-edge
// fat-tree with a 2:1 oversubscribed core, every edge-0 host sending a
// persistent flow to its edge-1 peer, protocols assigned per sender by
// AssignShares — the per-flow protocol mix the CongestionOps contract
// exists to support. Goodput is measured over [T/4, T/2] (before the
// probes perturb it); at T/2 each sender additionally launches one
// finite probe flow, whose completion times yield per-protocol FCT.
func RunRollout(cfg RolloutConfig) []RolloutRow {
	cfg.fill()
	if len(cfg.Shares) == 0 {
		cfg.Shares = RoCCShares(0.5)
	}
	n := cfg.HostsPerEdge
	engine := sim.New()
	ft := topology.BuildFatTree(engine, cfg.Seed, topology.SmallFatTree(2, 2, n, rolloutLinkGbps))
	net := ft.Net
	assign := AssignShares(cfg.Shares, n)
	mix := Assemble(RunSpec{Net: net, FatTree: ft, BaseRTT: 16 * sim.Microsecond, Protocols: assign}).Mix

	// Persistent cross-core flows, one per sender, protocol per assign.
	persistent := make([]*netsim.Flow, n)
	for i := 0; i < n; i++ {
		persistent[i] = mix.StartFlow(assign[i], ft.Hosts[0][i], ft.Hosts[1][i], -1, 0)
	}

	winStart, winEnd := cfg.Duration/4, cfg.Duration/2
	var startBytes, endBytes []int64
	engine.At(winStart, func() { startBytes = delivered(persistent) })
	engine.At(winEnd, func() { endBytes = delivered(persistent) })

	// FCT probes: one finite flow per sender, staggered a few µs apart so
	// the measurement is a rollout's background churn, not a pure incast.
	fctOf := make(map[netsim.FlowID]int, n)
	fctSec := make([]float64, n)
	fctDone := 0
	net.OnFlowDone = func(f *netsim.Flow) {
		if i, ok := fctOf[f.ID]; ok && fctSec[i] == 0 {
			fctSec[i] = f.FCT().Seconds()
			fctDone++
		}
	}
	for i := 0; i < n; i++ {
		i := i
		engine.At(winEnd+sim.Time(i)*5*sim.Microsecond, func() {
			f := mix.StartFlow(assign[i], ft.Hosts[0][i], ft.Hosts[1][i], cfg.FCTBytes, 0)
			fctOf[f.ID] = i
		})
	}

	engine.RunUntil(cfg.Duration)
	for _, f := range persistent {
		if !f.Done() {
			f.Stop()
		}
	}
	// Let straggling probes finish (bounded: a probe that hasn't completed
	// by 4x the run length is genuinely wedged and reported as missing).
	// The step is at least 1 ns, or a run shorter than 4 ns never ends.
	step := max(cfg.Duration/4, sim.Nanosecond)
	for t := cfg.Duration; fctDone < n && t < 4*cfg.Duration; t += step {
		engine.RunUntil(t + step)
	}

	goodput := windowGbps(endBytes, startBytes, winEnd-winStart)
	rows := make([]RolloutRow, 0, len(cfg.Shares))
	for _, s := range cfg.Shares {
		var rates, fcts []float64
		for i, p := range assign {
			if p != s.Proto {
				continue
			}
			rates = append(rates, goodput[i])
			if fctSec[i] > 0 {
				fcts = append(fcts, fctSec[i])
			}
		}
		if len(rates) == 0 {
			continue
		}
		rows = append(rows, RolloutRow{
			Proto:     s.Proto,
			Share:     s.Frac,
			Flows:     len(rates),
			MeanGbps:  stats.Mean(rates),
			Jain:      stats.JainIndex(rates),
			FCTMeanMs: stats.Mean(fcts) * 1e3,
			FCTP99Ms:  stats.Percentile(fcts, 99) * 1e3,
		})
	}
	return rows
}
