package netsim

// RouteTables returns every switch's current table: switch → destination
// host → equal-cost egress port indices, read through the dense
// per-destination index and its shared choice sets.
func (n *Network) RouteTables() map[NodeID]map[NodeID][]int {
	out := make(map[NodeID]map[NodeID][]int, len(n.switches))
	for _, s := range n.switches {
		table := make(map[NodeID][]int)
		for dst := range s.route {
			for _, i := range s.routeTo(NodeID(dst)) {
				table[NodeID(dst)] = append(table[NodeID(dst)], int(i))
			}
		}
		out[s.id] = table
	}
	return out
}

// ChoiceSets returns how many distinct non-empty equal-cost port sets
// the switch's table holds.
func (s *Switch) ChoiceSets() int {
	n := 0
	for _, set := range s.routeSets {
		if len(set) > 0 {
			n++
		}
	}
	return n
}

// ReferenceRouteTables computes the tables the way ComputeRoutes did
// before it moved to one dense distance slice: a map-backed breadth-first
// search per destination host. Kept as the oracle for the dense version.
func (n *Network) ReferenceRouteTables() map[NodeID]map[NodeID][]int {
	out := make(map[NodeID]map[NodeID][]int, len(n.switches))
	for _, s := range n.switches {
		out[s.id] = make(map[NodeID][]int)
	}
	for _, dst := range n.hosts {
		dist := n.referenceBFS(dst)
		for _, s := range n.switches {
			if s.failed {
				continue
			}
			ds, ok := dist[s.id]
			if !ok {
				continue
			}
			var next []int
			for i, p := range s.ports {
				if p.linkDown {
					continue
				}
				if dp, ok := dist[p.PeerNode.ID()]; ok && dp == ds-1 {
					next = append(next, i)
				}
			}
			if len(next) > 0 {
				out[s.id][dst.id] = next
			}
		}
	}
	return out
}

func (n *Network) referenceBFS(dst Node) map[NodeID]int {
	dist := map[NodeID]int{dst.ID(): 0}
	queue := []Node{dst}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range cur.Ports() {
			peer := p.PeerNode
			if peer == nil || p.linkDown {
				continue
			}
			if s, ok := peer.(*Switch); ok && s.failed {
				continue
			}
			if _, seen := dist[peer.ID()]; !seen {
				dist[peer.ID()] = dist[cur.ID()] + 1
				queue = append(queue, peer)
			}
		}
	}
	return dist
}
