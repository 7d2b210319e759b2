// Command mobius-sim simulates one training step of any evaluated system
// and prints the measured metrics plus an ASCII timeline.
//
// Usage:
//
//	mobius-sim -model 15B -topo 2+2 -system mobius
//	mobius-sim -model 8B -topo 4 -system ds-hetero
//	mobius-sim -model 8B -topo 4+4 -faults degraded.json
//
// A fault spec with a permanent failure (gpu_fail/link_fail), or -steps
// > 1, or -checkpoint-every > 0 switches to the multi-step elastic path
// (Mobius only): the run checkpoints periodically, detects the failure,
// re-plans on the surviving topology per -policy and prints the
// RecoveryReport:
//
//	mobius-sim -model 3B -topo 2+2 -steps 8 -checkpoint-every 2 -faults gpufail.json
//	mobius-sim -model 3B -topo 2+2 -steps 8 -checkpoint-every 2 -checkpoint-dest ssd -policy resume -faults gpufail.json
//
// Integrity knobs: -corruptions injects silent data corruption on every
// transfer, -checksums turns on end-to-end detection (per-byte cost,
// bounded retransmits, structured halt on exhaustion), and -rollback N
// prices a numeric-guard rollback of step N on the elastic path:
//
//	mobius-sim -model 15B -topo 2+2 -corruptions 0.05
//	mobius-sim -model 15B -topo 2+2 -corruptions 0.05 -checksums
//	mobius-sim -model 3B -topo 2+2 -steps 8 -checkpoint-every 2 -rollback 5
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"mobius/internal/core"
	"mobius/internal/elastic"
	"mobius/internal/fault"
	"mobius/internal/hw"
	"mobius/internal/model"
	"mobius/internal/plansvc"
	"mobius/internal/sim"
	"mobius/internal/trace"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// renderBandwidthCDF draws a bandwidth CDF in GB/s over an axis that
// spans the commodity root complex's 13.1 GB/s, or the fastest flow when
// a faster topology beats it, so no bar clips.
func renderBandwidthCDF(c trace.CDF) string {
	return c.Render(math.Max(c.Max(), 13.1*hw.GBps), hw.GBps, 60)
}

// maxWidth caps the timeline: one row per GPU lane is width bytes.
const maxWidth = 1000

// simArgs are the parsed flags check validates before anything runs.
type simArgs struct {
	system                            core.System
	topo                              *hw.Topology
	width, steps, ckptEvery, rollback int
}

// check refuses flag values the run cannot honour, naming the flag, and
// a Mobius run on a topology whose cross mapping search would not return
// (more than plansvc.MaxPlanGPUs GPUs).
func (a simArgs) check() error {
	switch {
	case a.width < 0 || a.width > maxWidth:
		return fmt.Errorf("-width %d: want 0 (no timeline) to %d characters", a.width, maxWidth)
	case a.steps < 1:
		return fmt.Errorf("-steps %d: want at least 1", a.steps)
	case a.ckptEvery < 0:
		return fmt.Errorf("-checkpoint-every %d: want 0 (never) or a positive step count", a.ckptEvery)
	case a.rollback < 0:
		return fmt.Errorf("-rollback %d: want 0 (none) or a 1-based step", a.rollback)
	case a.system == core.SystemMobius:
		return plansvc.CheckPlanGPUs(a.topo)
	}
	return nil
}

func main() {
	modelName := flag.String("model", "15B", "model: 3B, 8B, 15B, 51B")
	topoSpec := flag.String("topo", "2+2", "GPUs per root complex (e.g. 4, 2+2, 1+3) or 'dc'")
	topoFile := flag.String("topo-file", "", "JSON topology description (overrides -topo)")
	system := flag.String("system", "mobius", "system: mobius, gpipe, ds-pipeline, ds-hetero, zero-offload, zero-nvme")
	width := flag.Int("width", 100, "timeline width in characters, at most 1000 (0 = no timeline)")
	csvPath := flag.String("csv", "", "write the full event trace as CSV to this path")
	faultsPath := flag.String("faults", "", "JSON fault spec injected into the simulated hardware (mobius/gpipe only)")
	steps := flag.Int("steps", 1, "training steps; >1 simulates a multi-step run with elastic recovery (mobius only)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint the model states every k steps (0 = never; mobius only)")
	ckptDest := flag.String("checkpoint-dest", "dram", "checkpoint destination: dram or ssd")
	policy := flag.String("policy", "replan", "recovery policy after a permanent failure: replan, resume, restart")
	corruptProb := flag.Float64("corruptions", 0, "corrupt every transfer with this per-attempt probability [0,1); merges a wildcard rule into -faults")
	checksums := flag.Bool("checksums", false, "end-to-end transfer checksums: per-byte detection cost, bounded retransmits, structured halt (mobius/gpipe only)")
	rollback := flag.Int("rollback", 0, "simulate a numeric-guard rollback: the 1-based step whose result is rejected (selects the rollback recovery policy; mobius multi-step runs only)")
	flag.Parse()

	m, ok := model.ByName(*modelName)
	if !ok {
		fail("unknown model %q", *modelName)
	}

	var topo *hw.Topology
	var err error
	if *topoFile != "" {
		data, rerr := os.ReadFile(*topoFile)
		if rerr != nil {
			fail("%v", rerr)
		}
		topo, err = hw.ParseJSON(data)
	} else {
		topo, err = hw.ParseSpec(*topoSpec)
	}
	if err != nil {
		fail("%v", err)
	}

	var spec *fault.Spec
	if *faultsPath != "" {
		data, rerr := os.ReadFile(*faultsPath)
		if rerr != nil {
			fail("%v", rerr)
		}
		spec, err = fault.ParseJSON(data)
		if err != nil {
			fail("%v", err)
		}
		// Server losses and bounces only mean something to a fleet; a
		// single simulated step would silently ignore them.
		if spec.HasServerFails() || spec.HasServerRestarts() {
			fail("%s: server_fails and server_restarts are fleet clauses; run them with mobius-cluster", *faultsPath)
		}
	}
	if *corruptProb != 0 {
		if spec == nil {
			spec = &fault.Spec{}
		}
		spec.Corruptions = append(spec.Corruptions, fault.CorruptionFault{Match: "*", Probability: *corruptProb})
		if err := spec.Validate(); err != nil {
			fail("%v", err)
		}
	}

	sys := map[string]core.System{
		"mobius":       core.SystemMobius,
		"gpipe":        core.SystemGPipe,
		"ds-pipeline":  core.SystemDSPipeline,
		"ds-hetero":    core.SystemDSHetero,
		"zero-offload": core.SystemZeROOffload,
		"zero-nvme":    core.SystemZeRONVMe,
	}[*system]
	if sys == "" {
		fail("unknown system %q", *system)
	}
	if err := (simArgs{system: sys, topo: topo, width: *width, steps: *steps, ckptEvery: *ckptEvery,
		rollback: *rollback}).check(); err != nil {
		fail("%v", err)
	}

	// The elastic path: multi-step runs, checkpointing, and recovery from
	// permanent failures. A non-Mobius system with a permanent fault falls
	// through to the single-step path, which reports the halt.
	if *steps > 1 || *ckptEvery > 0 || *rollback > 0 {
		if sys != core.SystemMobius {
			fail("elastic recovery (-steps/-checkpoint-every/-rollback) requires -system mobius")
		}
	}
	if sys == core.SystemMobius && (*steps > 1 || *ckptEvery > 0 || *rollback > 0 || spec.HasPermanent()) {
		if *checksums {
			fail("-checksums applies to single-step runs; the elastic path prices steps without per-transfer detection")
		}
		pol := elastic.Policy(*policy)
		if *rollback > 0 {
			pol = elastic.PolicyRollback
		}
		rep, err := elastic.Run(elastic.Config{
			Model:           m,
			Topology:        topo,
			Steps:           *steps,
			CheckpointEvery: *ckptEvery,
			CheckpointDest:  elastic.Dest(*ckptDest),
			Faults:          spec,
			Policy:          pol,
			AnomalyStep:     *rollback,
		})
		if err != nil {
			fail("recovery simulation failed: %v", err)
		}
		fmt.Println(rep)
		return
	}

	report, err := core.Run(sys, core.Options{Model: m, Topology: topo, Faults: spec,
		Checksums: sim.ChecksumConfig{Enabled: *checksums}})
	if err != nil {
		fail("simulation failed: %v", err)
	}
	if report.ResourceLost != nil {
		fmt.Println(report)
		fmt.Printf("%v\nrerun with -steps/-checkpoint-every to simulate elastic recovery\n", report.ResourceLost)
		return
	}
	if report.Corruption != nil {
		fmt.Println(report)
		fmt.Printf("%v\nraise -checksums retransmit budget tolerance by lowering -corruptions, or accept the halt\n", report.Corruption)
		return
	}
	fmt.Println(report)
	if report.FaultInjection != nil {
		fmt.Println(report.FaultInjection)
	}
	if st := report.Integrity; st.CorruptedAttempts > 0 || st.ChecksumCost > 0 {
		fmt.Printf("integrity: %d corrupted deliveries, %d retransmits (%.4fs backoff), checksum cost %.4fs, %d silent, %d tainted tasks\n",
			st.CorruptedAttempts, st.Retransmits, float64(st.RetransmitWait), float64(st.ChecksumCost),
			st.SilentCorruptions, st.TaintedTasks)
	}
	if report.OOM {
		if report.OOMCause != "" {
			fmt.Printf("OOM cause: %s\n", report.OOMCause)
		}
		return
	}
	fmt.Printf("\nbandwidth CDF (all transfers, GB/s):\n%s\n", renderBandwidthCDF(report.BandwidthCDF()))
	if report.Server != nil {
		fmt.Println("root complex utilization over the step:")
		for i, rc := range report.Server.RootComplexes {
			fmt.Printf("  rc%d: %5.1f%%  (%.1f GB carried)\n", i,
				rc.Utilization(report.StepTime)*100, rc.Carried()/1e9)
		}
		fmt.Println()
	}
	fmt.Printf("timeline:\n%s", report.Recorder.RenderGantt(topo.NumGPUs(), report.StepTime, *width))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fail("csv: %v", err)
		}
		defer f.Close()
		if err := report.Recorder.WriteCSV(f); err != nil {
			fail("csv: %v", err)
		}
		fmt.Printf("\ntrace written to %s (%d flows, %d computes)\n", *csvPath,
			len(report.Recorder.Flows), len(report.Recorder.Computes))
	}
}
