package mapping

import (
	"context"
	"testing"

	"mobius/internal/hw"
)

// BenchmarkCrossMapping8 measures the cross-mapping search at the largest
// evaluated scale: 8 GPUs under two root complexes (Topo 4+4), 32 stages.
func BenchmarkCrossMapping8(b *testing.B) {
	topo := hw.Commodity(hw.RTX3090Ti, 4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cross(context.Background(), topo, 32); err != nil {
			b.Fatal(err)
		}
	}
}
