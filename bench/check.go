package main

import (
	"fmt"
	"reflect"

	"rocc/internal/experiments"
	"rocc/internal/workload"
)

// runCheck holds the benchmark's own FCT and scale assemblies to the
// repository's runners at the same seed, so that wall_s measures what
// `roccsim fig14` and `roccsim scale` run. One comparison is one
// operation; a mismatch fails it.
func runCheck(e *env) {
	seed := e.Seed
	if seed == 0 {
		seed = 1 // RunScaleBench reads seed 0 as "default" and substitutes 1
	}
	mine := func(name string) *env {
		return newEnv(childArgs{Workload: name, Seed: seed, Tiny: e.Tiny, Spawned: e.Spawned}, &childResult{})
	}

	e.res.Ops++
	f := mine(wlFCT)
	f.fct()
	ref := experiments.RunFCT(experiments.FCTConfig{
		Protocol: experiments.ProtoRoCC,
		Workload: workload.FBHadoop(),
		Load:     0.7,
		FatTree:  e.Sizes.FCTTree,
		Duration: e.Sizes.FCTDuration,
		Seed:     seed,
		Shards:   1,
	})
	if got, want := int(f.res.Outputs["flows_done"]), ref.FlowsDone; got != want {
		e.res.fail(fmt.Sprintf("fct: %d flows done, RunFCT has %d", got, want))
	} else if got, want := int64(f.res.Outputs["total_bytes"]), ref.TotalBytes; got != want {
		e.res.fail(fmt.Sprintf("fct: %d bytes delivered, RunFCT has %d", got, want))
	} else if !reflect.DeepEqual(f.bins, ref.Bins) {
		e.res.fail(fmt.Sprintf("fct: per-bin FCT differs from RunFCT: %+v vs %+v", f.bins, ref.Bins))
	}
	e.res.Outputs["RunFCT_flows_done"] = float64(ref.FlowsDone)

	e.res.Ops++
	s := mine(wlScale)
	s.scale()
	sref := experiments.RunScaleBench(experiments.ScaleBenchConfig{
		Shards:   1,
		Seed:     seed,
		FatTree:  e.Sizes.ScaleTree,
		Flows:    e.Sizes.ScaleFlows,
		Duration: e.Sizes.ScaleTime,
	})
	if got, want := s.dig.String(), sref.Digest; got != want {
		e.res.fail(fmt.Sprintf("scale: digest %s, RunScaleBench has %s", got, want))
	} else if got, want := uint64(s.res.Metrics["sim.events"]), sref.Events; got != want {
		e.res.fail(fmt.Sprintf("scale: %d events, RunScaleBench has %d", got, want))
	}
	e.res.Outputs["RunScaleBench_events"] = float64(sref.Events)
	e.tr.end() // child
}
