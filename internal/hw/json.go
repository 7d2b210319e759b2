package hw

import (
	"encoding/json"
	"fmt"
	"math"
)

// topologyJSON is the on-disk description of a custom server, so users
// can model their own machine with cmd/mobius-sim -topo-file.
//
//	{
//	  "name": "my box",
//	  "gpu": {"name": "RTX 3090-Ti", "mem_gb": 24, "fp16_tflops": 160,
//	          "efficiency": 0.05, "link_gbps": 16, "price_usd": 2000},
//	  "groups": [2, 2],
//	  "root_complex_gbps": 13.1,
//	  "dram_gb": 1500,
//	  "transfer_latency_ms": 5,
//	  "nvlink_gbps": 0
//	}
type topologyJSON struct {
	Name              string  `json:"name"`
	GPU               gpuJSON `json:"gpu"`
	Groups            []int   `json:"groups"`
	RootComplexGBps   float64 `json:"root_complex_gbps"`
	DRAMGB            float64 `json:"dram_gb"`
	TransferLatencyMS float64 `json:"transfer_latency_ms"`
	NVLinkGBps        float64 `json:"nvlink_gbps"`
	SSDGBps           float64 `json:"ssd_gbps"`
	SSDGB             float64 `json:"ssd_gb"`
}

type gpuJSON struct {
	Name       string  `json:"name"`
	MemGB      float64 `json:"mem_gb"`
	FP16TFLOPS float64 `json:"fp16_tflops"`
	Efficiency float64 `json:"efficiency"`
	LinkGBps   float64 `json:"link_gbps"`
	PriceUSD   float64 `json:"price_usd"`
	P2P        bool    `json:"p2p"`
}

// ParseJSON builds a topology from a JSON description. Missing optional
// fields fall back to commodity defaults; a negative field, an
// efficiency above 1, a value that overflows once converted to bytes,
// bytes/s or FLOP/s, or a bandwidth under 1 byte/s is an error naming
// the field.
func ParseJSON(data []byte) (*Topology, error) {
	var tj topologyJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return nil, fmt.Errorf("hw: bad topology JSON: %w", err)
	}
	if err := tj.check(); err != nil {
		return nil, err
	}
	if len(tj.Groups) == 0 {
		return nil, fmt.Errorf("hw: topology JSON needs at least one GPU group")
	}
	total := 0
	for _, g := range tj.Groups {
		if g <= 0 {
			return nil, fmt.Errorf("hw: non-positive GPU group in %v", tj.Groups)
		}
		// Bound each group against what is left, so huge groups cannot
		// wrap the sum back under the limit.
		if g > maxSpecGPUs-total {
			return nil, fmt.Errorf("hw: topology JSON exceeds %d GPUs", maxSpecGPUs)
		}
		total += g
	}

	spec := GPUSpec{
		Name:       orStr(tj.GPU.Name, RTX3090Ti.Name),
		MemBytes:   orF(tj.GPU.MemGB, 24) * GB,
		FP16TFLOPS: orF(tj.GPU.FP16TFLOPS, RTX3090Ti.FP16TFLOPS),
		Efficiency: orF(tj.GPU.Efficiency, RTX3090Ti.Efficiency),
		LinkBW:     orF(tj.GPU.LinkGBps, 16) * GBps,
		PriceUSD:   orF(tj.GPU.PriceUSD, RTX3090Ti.PriceUSD),
		P2P:        tj.GPU.P2P,
	}
	t := Commodity(spec, tj.Groups...)
	if tj.Name != "" {
		t.Name = tj.Name
	}
	if tj.RootComplexGBps > 0 {
		for i := range t.RootComplexBW {
			t.RootComplexBW[i] = tj.RootComplexGBps * GBps
		}
	}
	if tj.DRAMGB > 0 {
		t.DRAMBytes = tj.DRAMGB * GB
	}
	if tj.TransferLatencyMS > 0 {
		t.TransferLatency = tj.TransferLatencyMS / 1000
	}
	if tj.NVLinkGBps > 0 {
		t.NVLinkBW = tj.NVLinkGBps * GBps
	}
	if tj.SSDGBps > 0 {
		t.WithSSD(tj.SSDGBps*GBps, orF(tj.SSDGB, 4000)*GB)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// check rejects the numeric fields ParseJSON would otherwise replace or
// accept silently: a negative value (which would take the default), an
// efficiency outside (0, 1] (zero means the default), a value whose
// conversion to bytes, bytes/s or FLOP/s is not finite, and a bandwidth
// under 1 byte/s, over which a transfer's completion time could overflow
// the simulator's clock.
func (tj *topologyJSON) check() error {
	if e := tj.GPU.Efficiency; e < 0 || e > 1 {
		return fmt.Errorf("hw: topology JSON field gpu.efficiency is %g, outside (0, 1]", e)
	}
	for _, f := range []struct {
		name      string
		v, scale  float64
		bandwidth bool
	}{
		{"gpu.mem_gb", tj.GPU.MemGB, GB, false},
		{"gpu.fp16_tflops", tj.GPU.FP16TFLOPS, 1e12, false},
		{"gpu.link_gbps", tj.GPU.LinkGBps, GBps, true},
		{"gpu.price_usd", tj.GPU.PriceUSD, 1, false},
		{"root_complex_gbps", tj.RootComplexGBps, GBps, true},
		{"dram_gb", tj.DRAMGB, GB, false},
		{"transfer_latency_ms", tj.TransferLatencyMS, 1e-3, false},
		{"nvlink_gbps", tj.NVLinkGBps, GBps, true},
		{"ssd_gbps", tj.SSDGBps, GBps, true},
		{"ssd_gb", tj.SSDGB, GB, false},
	} {
		if f.v < 0 {
			return fmt.Errorf("hw: topology JSON field %s is negative (%g)", f.name, f.v)
		}
		if math.IsInf(f.v*f.scale, 0) {
			return fmt.Errorf("hw: topology JSON field %s is %g, which overflows once converted", f.name, f.v)
		}
		if f.bandwidth && f.v > 0 && f.v*f.scale < 1 {
			return fmt.Errorf("hw: topology JSON field %s is %g, under 1 byte/s", f.name, f.v)
		}
	}
	return nil
}

func orStr(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

func orF(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}
