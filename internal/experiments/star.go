package experiments

import (
	"rocc/internal/netsim"
	"rocc/internal/sim"
	"rocc/internal/topology"
)

// starCell is one run of a protocol on an n-source star (§6.1): every
// star figure, the robustness and rogue sweeps and the QoS demo run on
// one. It is the one place such a run builds its engine and fabric and
// assembles them.
type starCell struct {
	*topology.Star
	*Assembly
	engine *sim.Engine
	proto  Protocol
}

// newStar builds an n-source star whose links run at gbps, seeded
// spec.Seed, and assembles it for proto with the rest of spec. The
// protocol is wired at the bottleneck alone, or at every switch port
// when allPorts is set.
func newStar(proto Protocol, n int, gbps float64, allPorts bool, spec RunSpec) starCell {
	engine := sim.New()
	star := topology.BuildStar(engine, spec.Seed, n, netsim.Gbps(gbps))
	spec.Net, spec.Protocols = star.Net, []Protocol{proto}
	if !allPorts {
		spec.Ports = []*netsim.Port{star.Bottleneck}
	}
	return starCell{star, Assemble(spec), engine, proto}
}

// start starts a persistent flow from source i to the sink.
func (c starCell) start(i int, offered netsim.Rate) *netsim.Flow {
	return c.Mix.StartFlow(c.proto, c.Sources[i], c.Dst, -1, offered)
}

// startAll starts a persistent flow from every source.
func (c starCell) startAll(offered netsim.Rate) []*netsim.Flow {
	flows := make([]*netsim.Flow, len(c.Sources))
	for i := range flows {
		flows[i] = c.start(i, offered)
	}
	return flows
}

// setCount is the flow-count ladder of Figs. 9 and 19: it starts flows
// from the next idle sources, or stops the newest, until n run.
func (c starCell) setCount(flows []*netsim.Flow, n int, offered netsim.Rate) []*netsim.Flow {
	for len(flows) < n {
		flows = append(flows, c.start(len(flows), offered))
	}
	for len(flows) > n {
		flows[len(flows)-1].Stop()
		flows = flows[:len(flows)-1]
	}
	return flows
}
