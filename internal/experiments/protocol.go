// Package experiments contains one runner per table and figure of the
// RoCC paper's evaluation (§6 and App. A). Each runner builds the
// topology, wires the protocol under test, drives the workload, and
// returns structured rows that cmd/roccsim and the root benchmarks print.
package experiments

import (
	"fmt"
	"strings"

	"rocc/internal/hpcc"
)

// Protocol names a congestion-control scheme under test.
type Protocol string

// The protocols the paper evaluates.
const (
	ProtoRoCC    Protocol = "RoCC"
	ProtoDCQCN   Protocol = "DCQCN"
	ProtoDCQCNPI Protocol = "DCQCN+PI"
	ProtoHPCC    Protocol = "HPCC"
	ProtoTIMELY  Protocol = "TIMELY"
	ProtoQCN     Protocol = "QCN"
	// ProtoDCTCP is the Table 1 lineage baseline (not in the paper's
	// quantitative evaluation; provided for completeness).
	ProtoDCTCP Protocol = "DCTCP"
)

// ComparisonProtocols is the trio of the large-scale comparisons
// (Figs. 12, 14-18, Table 3).
func ComparisonProtocols() []Protocol {
	return []Protocol{ProtoDCQCN, ProtoHPCC, ProtoRoCC}
}

// MicroProtocols is the five-way comparison of Fig. 11 plus RoCC.
func MicroProtocols() []Protocol {
	return []Protocol{ProtoTIMELY, ProtoQCN, ProtoDCQCN, ProtoDCQCNPI, ProtoHPCC, ProtoRoCC}
}

// AllProtocols adds the Table 1 lineage baseline (DCTCP) to the paper's
// evaluated set.
func AllProtocols() []Protocol {
	return append(MicroProtocols(), ProtoDCTCP)
}

// ParseProtocol resolves a protocol by name, case-insensitively, so CLI
// spellings like "rocc" and "dcqcn+pi" work.
func ParseProtocol(name string) (Protocol, error) {
	for _, p := range AllProtocols() {
		if strings.EqualFold(string(p), name) {
			return p, nil
		}
	}
	return "", fmt.Errorf("experiments: unknown protocol %q", name)
}

// INTOverheadBytes is the per-data-packet wire cost of HPCC's telemetry
// (the paper cites 42 B of INT for a 5-hop path).
const INTOverheadBytes = hpcc.INTOverheadBytes
