package pipeline

import "strconv"

// Namer formats task names through one reusable byte buffer with
// strconv: one string allocation per name and no fmt machinery, which at
// 100k tasks was a measurable slice of construction wall-clock. Every
// scheduler here (Mobius, GPipe and the ZeRO baselines) names its tasks
// through it; the zero value is ready to use.
type Namer struct{ buf []byte }

// Name formats prefix+j+suffix ("allocF3", "CB7.pre", "gf2.done").
func (n *Namer) Name(prefix string, j int, suffix string) string {
	n.buf = strconv.AppendInt(append(n.buf[:0], prefix...), int64(j), 10)
	n.buf = append(n.buf, suffix...)
	return string(n.buf)
}

// Name2 formats prefix+j+sep+k ("F3.7", "F3.g1", "gf2.shard1").
func (n *Namer) Name2(prefix string, j int, sep string, k int) string {
	n.buf = strconv.AppendInt(append(n.buf[:0], prefix...), int64(j), 10)
	n.buf = strconv.AppendInt(append(n.buf, sep...), int64(k), 10)
	return string(n.buf)
}

// Name3 formats prefix+j+sep+k+sep2+l ("RS3.g1-2", "gf2.ag0-1").
func (n *Namer) Name3(prefix string, j int, sep string, k int, sep2 string, l int) string {
	n.buf = strconv.AppendInt(append(n.buf[:0], prefix...), int64(j), 10)
	n.buf = strconv.AppendInt(append(n.buf, sep...), int64(k), 10)
	n.buf = strconv.AppendInt(append(n.buf, sep2...), int64(l), 10)
	return string(n.buf)
}
