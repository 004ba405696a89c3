package netsim

import "slices"

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

// RouteSetNumbers returns, per switch, the set number its table holds
// for each host, in host creation order.
func (n *Network) RouteSetNumbers() map[NodeID][]int32 {
	out := make(map[NodeID][]int32, len(n.switches))
	for _, s := range n.switches {
		nums := make([]int32, len(n.hosts))
		for i, h := range n.hosts {
			if int(h.id) < len(s.route) {
				nums[i] = s.route[h.id]
			}
		}
		out[s.id] = nums
	}
	return out
}

// ReferenceRouteSetNumbers numbers the port sets of tables (from
// ReferenceRouteTables) the way a search per destination host interns
// them: at each switch, host by host in creation order, a set taking the
// next number the first time it is seen (0 is no route).
func (n *Network) ReferenceRouteSetNumbers(tables map[NodeID]map[NodeID][]int) map[NodeID][]int32 {
	out := make(map[NodeID][]int32, len(n.switches))
	for _, s := range n.switches {
		var seen [][]int
		nums := make([]int32, len(n.hosts))
		for i, h := range n.hosts {
			set := tables[s.id][h.id]
			if len(set) == 0 {
				continue
			}
			k := slices.IndexFunc(seen, func(x []int) bool { return slices.Equal(x, set) })
			if k < 0 {
				seen = append(seen, set)
				k = len(seen) - 1
			}
			nums[i] = int32(k + 1)
		}
		out[s.id] = nums
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
