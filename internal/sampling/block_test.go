package sampling

import (
	"testing"

	"rcbcast/internal/rng"
)

// TestBlockScheduleMatchesSlotSchedule pins the block schedule to the
// scalar one slot for slot across the probability / length grid the
// engine exercises: degenerate p, p ≥ 1, sparse and dense regimes, and
// lengths around the block size. One block schedule serves every case,
// so Reset's kept log is exercised both reused (same p) and replaced.
func TestBlockScheduleMatchesSlotSchedule(t *testing.T) {
	ps := []float64{0, -0.5, 1e-9, 1e-4, 0.01, 0.1, 0.5, 0.97, 1, 1.5}
	lengths := []int{0, 1, 2, 7, 8, 9, 63, 64, 100, 1024, 1 << 15}
	var block BlockSchedule
	for _, p := range ps {
		for _, length := range lengths {
			var scalarStream, blockStream rng.Stream
			scalarStream.Reseed(12345, uint64(length))
			blockStream.Reseed(12345, uint64(length))
			var scalar SlotSchedule
			scalar.Reset(&scalarStream, p, length)
			block.Reset(&blockStream, p, length)
			for i := 0; ; i++ {
				ws, wok := scalar.Next()
				gs, gok := block.Next()
				if ws != gs || wok != gok {
					t.Fatalf("p=%v length=%d event %d: scalar (%d,%v) block (%d,%v)",
						p, length, i, ws, wok, gs, gok)
				}
				if !wok {
					break
				}
			}
			// Once exhausted, both stay exhausted.
			if _, ok := block.Next(); ok {
				t.Fatalf("p=%v length=%d: block schedule revived after exhaustion", p, length)
			}
		}
	}
}

// TestBlockScheduleResumesLane pins the batch kernel's straggler path:
// a schedule drawn for a few blocks on an rng.Lanes lane, handed off and
// resumed on a BlockSchedule at the lane's pos, yields exactly the
// SlotSchedule sequence, whatever the number of lane blocks before it.
func TestBlockScheduleResumesLane(t *testing.T) {
	for _, p := range []float64{1e-4, 0.01, 0.1, 0.5, 0.97} {
		for _, length := range []int{1, 9, 64, 1024, 1 << 15} {
			for blocks := 0; blocks < 4; blocks++ {
				var scalarStream, laneStream rng.Stream
				scalarStream.Reseed(777, uint64(length))
				laneStream.Reseed(777, uint64(length))
				var scalar SlotSchedule
				scalar.Reset(&scalarStream, p, length)
				var lanes rng.Lanes
				lanes.Start(3, &laneStream, p, length)
				var got []int32
				for b := 0; b < blocks && lanes.Live() != 0; b++ {
					lanes.Draw()
					got = append(got, lanes.Slots(3)...)
				}
				if lanes.Live() != 0 {
					var block BlockSchedule
					block.Resume(&laneStream, p, length, lanes.Handoff(3, &laneStream))
					for s, ok := block.Next(); ok; s, ok = block.Next() {
						got = append(got, int32(s))
					}
				}
				for i := 0; ; i++ {
					ws, wok := scalar.Next()
					if !wok {
						if i != len(got) {
							t.Fatalf("p=%v length=%d blocks=%d: %d slots, scalar schedule has %d", p, length, blocks, len(got), i)
						}
						break
					}
					if i >= len(got) || int(got[i]) != ws {
						t.Fatalf("p=%v length=%d blocks=%d event %d: scalar %d, lane+block %v", p, length, blocks, i, ws, got)
					}
				}
			}
		}
	}
}

// TestBlockScheduleManySeeds sweeps seeds at one engine-typical
// configuration so refill boundaries land everywhere in the buffer.
func TestBlockScheduleManySeeds(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		var ss, bs rng.Stream
		ss.Reseed(seed)
		bs.Reseed(seed)
		var scalar SlotSchedule
		var block BlockSchedule
		scalar.Reset(&ss, 0.07, 4096)
		block.Reset(&bs, 0.07, 4096)
		for {
			ws, wok := scalar.Next()
			gs, gok := block.Next()
			if ws != gs || wok != gok {
				t.Fatalf("seed %d: scalar (%d,%v) block (%d,%v)", seed, ws, wok, gs, gok)
			}
			if !wok {
				break
			}
		}
	}
}

// drawsBetween returns how many draws carry stream state from to to,
// or -1 if more than limit.
func drawsBetween(from, to rng.Stream, limit int) int {
	for d := 0; d <= limit; d++ {
		if from == to {
			return d
		}
		from.Uint64() // one xoshiro step, as each geometric draw takes
	}
	return -1
}

// TestBlockScheduleFirstRefill pins the refill depths: a schedule
// consumed for one slot has advanced its stream by at most one
// eight-draw block, however many actions it expects, and once past its
// first block a dense schedule prefetches blockDraws at a time.
func TestBlockScheduleFirstRefill(t *testing.T) {
	for _, p := range []float64{1e-4, 0.01, 0.1, 0.5, 0.97} {
		for _, length := range []int{9, 64, 1024, 1 << 15} {
			var st rng.Stream
			st.Reseed(777, uint64(length))
			var block BlockSchedule
			block.Reset(&st, p, length)
			start := st
			if _, ok := block.Next(); !ok {
				continue
			}
			if d := drawsBetween(start, st, firstDraws); d < 0 {
				t.Fatalf("p=%v length=%d: one Next drew more than %d", p, length, firstDraws)
			}
		}
	}
	var st rng.Stream
	st.Reseed(778)
	var block BlockSchedule
	block.Reset(&st, 0.5, 1<<15)
	if got := len(block.Take()); got != firstDraws {
		t.Fatalf("first dense block holds %d slots, want %d", got, firstDraws)
	}
	mid := st
	if got := len(block.Take()); got != blockDraws {
		t.Fatalf("second dense block holds %d slots, want %d", got, blockDraws)
	}
	if d := drawsBetween(mid, st, blockDraws); d != blockDraws {
		t.Fatalf("second dense refill drew %d, want %d", d, blockDraws)
	}
}

// TestDrawPath logs which geometric draw path this package's tests ran
// on. rng.DrawPath reads RCBCAST_NO_GEOBLOCK8 while the tests run, so go
// test reuses a cached result only under the same setting.
func TestDrawPath(t *testing.T) { t.Log(rng.DrawPath()) }
