//go:build !amd64

package rng

// Architectures without the assembly kernels take the four-lane Go path
// in GeometricSlots and Lanes.Draw, and the Go bit loop in Lanes.Bits,
// unconditionally.
var useGeoBlock8, useLaneSlots8, useLaneBits8 = false, false, false

// GeoBlock8Enabled reports whether block draws route through the
// assembly kernel — never, on this architecture.
func GeoBlock8Enabled() bool { return false }

// LaneSlots8Enabled reports whether lane draws route through the
// assembly lane kernel — never, on this architecture.
func LaneSlots8Enabled() bool { return false }

// LaneBits8Enabled reports whether lane bit-gathers route through the
// assembly kernel — never, on this architecture.
func LaneBits8Enabled() bool { return false }

// SetGeoBlock8 is the in-process kernel switch; without an assembly
// kernel it is inert and reports the kernel permanently disabled.
func SetGeoBlock8(bool) (prev bool) { return false }

func geoSlots8Asm(s *[4]uint64, dst *int32, k, pos, length int, invLnQ float64) (n, next int) {
	panic("rng: geoSlots8Asm without assembly kernel")
}

func laneSlots8Asm(ls *laneState, dst *[8][laneBlock]int32, live int) (ended uint8, ok bool) {
	panic("rng: laneSlots8Asm without assembly kernel")
}

func laneBits8Asm(ls *laneState, slots *[8][laneBlock]int32, words *uint64, limit int, lanes uint8, out *[8]uint16) (ok bool) {
	panic("rng: laneBits8Asm without assembly kernel")
}
