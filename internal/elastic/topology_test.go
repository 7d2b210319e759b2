package elastic

import (
	"reflect"
	"testing"

	"mobius/internal/fault"
	"mobius/internal/hw"
)

// TestSurvivingTopologyRenumbers checks the survivor derivation on the
// asymmetric Topo 1+3: losing the lone GPU of rc0 drops the whole root
// complex and renumbers both GPUs and complexes densely.
func TestSurvivingTopologyRenumbers(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 1, 3)
	spec := &fault.Spec{GPUFails: []fault.GPUFailFault{{GPU: 0, At: 1}}}
	surv, gpuMap, _, err := survive(topo, spec)
	if err != nil {
		t.Fatal(err)
	}
	if surv.NumGPUs() != 3 || len(surv.RootComplexBW) != 1 {
		t.Fatalf("survivor: %d GPUs, %d RCs", surv.NumGPUs(), len(surv.RootComplexBW))
	}
	if !reflect.DeepEqual(gpuMap, []int{-1, 0, 1, 2}) {
		t.Fatalf("gpuMap: %v", gpuMap)
	}
	for i, g := range surv.GPUs {
		if g.ID != i || g.RootComplex != 0 {
			t.Fatalf("gpu %d not renumbered: %+v", i, g)
		}
	}
	if err := surv.Validate(); err != nil {
		t.Fatalf("survivor invalid: %v", err)
	}
}

// TestSurvivingTopologyLinkFailTakesWholeComplex kills rc0 on Topo 2+2:
// both GPUs under it die.
func TestSurvivingTopologyLinkFailTakesWholeComplex(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	spec := &fault.Spec{LinkFails: []fault.LinkFailFault{{Link: "rc0", At: 1}}}
	surv, gpuMap, _, err := survive(topo, spec)
	if err != nil {
		t.Fatal(err)
	}
	if surv.NumGPUs() != 2 || !reflect.DeepEqual(gpuMap, []int{-1, -1, 0, 1}) {
		t.Fatalf("survivor: %d GPUs, map %v", surv.NumGPUs(), gpuMap)
	}
}

// TestSurvivingTopologyDRAMBusNotSurvivable: losing host memory is fatal.
func TestSurvivingTopologyDRAMBusNotSurvivable(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 2, 2)
	spec := &fault.Spec{LinkFails: []fault.LinkFailFault{{Link: "drambus", At: 1}}}
	if _, _, _, err := survive(topo, spec); err == nil {
		t.Fatal("drambus failure should not be survivable")
	}
}

// TestRemapSpec checks the link windows follow the renumbering and
// windows on dead hardware are dropped.
func TestRemapSpec(t *testing.T) {
	topo := hw.Commodity(hw.RTX3090Ti, 1, 3)
	spec := &fault.Spec{
		Seed:     7,
		GPUFails: []fault.GPUFailFault{{GPU: 0, At: 1}},
		Links: []fault.LinkFault{
			{Link: "gpu2.link", Multiplier: 0.5, Start: 0},
			{Link: "rc1", Multiplier: 0.8, Start: 0},
			{Link: "gpu0.link", Multiplier: 0.9, Start: 0, End: 0.5}, // dies with gpu0
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	_, gpuMap, rcMap, err := survive(topo, spec)
	if err != nil {
		t.Fatal(err)
	}
	out := remapSpec(spec, gpuMap, rcMap)
	if out.HasPermanent() {
		t.Fatal("permanent clauses must not survive remapping")
	}
	if len(out.Links) != 2 || out.Links[0].Link != "gpu1.link" || out.Links[1].Link != "rc0" {
		t.Fatalf("links: %+v", out.Links)
	}
	if out.Seed != 7 {
		t.Fatalf("seed not carried: %d", out.Seed)
	}
	if remapSpec(&fault.Spec{GPUFails: spec.GPUFails}, gpuMap, rcMap) != nil {
		t.Fatal("a spec with nothing left to carry should remap to nil")
	}
}
