package bus

import (
	"reflect"
	"testing"

	"soda/internal/frame"
	"soda/internal/sim"
	"soda/internal/sortediter"
)

// The measurement-window contract on Stats has three runtime checks, each
// walking the struct by reflection so a counter added in the future is
// covered without editing them: ResetStats zeroes every field, a Stats()
// snapshot is detached from the live counters, and Stats.Add sums every
// field. Each was checked against a mutation that a field-zeroing loop
// alone lets through: removing the ByKind deep copy from (*Bus).Stats fails
// TestStatsSnapshotIsDetached, and a ResetStats that leaves ByKind nil
// fails TestResetStatsZeroesEveryField.

// poisonStats sets field i of *s to base+i for every uint64 counter and
// gives ByKind one entry per transport kind in kinds, valued base.
func poisonStats(t *testing.T, s *Stats, base uint64, kinds ...frame.TransportKind) {
	t.Helper()
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(base + uint64(i))
		case reflect.Map:
			f.Set(reflect.MakeMap(f.Type()))
			for _, k := range kinds {
				f.SetMapIndex(reflect.ValueOf(k), reflect.ValueOf(base))
			}
		default:
			t.Fatalf("Stats field %s has kind %v: teach this test how to poison it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
}

// cloneStats deep-copies s, ByKind included.
func cloneStats(s Stats) Stats {
	out := s
	out.ByKind = make(map[frame.TransportKind]uint64, len(s.ByKind))
	for _, k := range sortediter.Keys(s.ByKind) {
		out.ByKind[k] = s.ByKind[k]
	}
	return out
}

// TestResetStatsZeroesEveryField poisons every field to a non-zero value
// and asserts ResetStats clears them all, so no counter leaks across
// measurement windows, and that the window it opens still counts.
func TestResetStatsZeroesEveryField(t *testing.T) {
	k := sim.New(1)
	b := New(k, DefaultConfig())
	if _, err := b.Attach(2, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	i1, err := b.Attach(1, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	poisonStats(t, &b.stats, 1, frame.TransportData)

	b.ResetStats()

	got := b.Stats()
	v := reflect.ValueOf(got)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Uint64:
			if f.Uint() != 0 {
				t.Errorf("Stats.%s = %d after ResetStats, want 0", name, f.Uint())
			}
		case reflect.Map:
			if f.Len() != 0 {
				t.Errorf("Stats.%s has %d entries after ResetStats, want empty", name, f.Len())
			}
		}
	}

	// A reset that left ByKind nil would pass the loop above and then
	// panic on the first transmission.
	i1.Send(2, testFrame(frame.TransportAck, 12))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := b.Stats(); got.FramesSent != 1 || got.ByKind[frame.TransportAck] != 1 {
		t.Fatalf("first window after ResetStats counted %+v, want one ACK frame", got)
	}
}

// TestStatsSnapshotIsDetached: Stats reports every live counter, and its
// result shares nothing with the bus — writing through the snapshot's
// ByKind leaves the next snapshot unchanged, and later counting leaves an
// earlier snapshot unchanged.
func TestStatsSnapshotIsDetached(t *testing.T) {
	b := New(sim.New(1), DefaultConfig())
	poisonStats(t, &b.stats, 1, frame.TransportData, frame.TransportAck)
	want := cloneStats(b.stats)

	first := b.Stats()
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("Stats() = %+v, want every poisoned field %+v", first, want)
	}
	first.ByKind[frame.TransportData] = 999
	first.ByKind[frame.TransportNack] = 7
	delete(first.ByKind, frame.TransportAck)
	if got := b.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("writing through a snapshot's ByKind reached the bus: Stats() = %+v, want %+v", got, want)
	}

	second := b.Stats()
	b.stats.ByKind[frame.TransportData]++
	b.stats.ByKind[frame.TransportDatagram] = 3
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("counting after a snapshot changed it: %+v, want %+v", second, want)
	}
}

// TestStatsAdd poisons two Stats field by field and checks that Add sums
// each counter and merges ByKind, into a zero receiver and into a non-zero
// one, and that adding a zero Stats changes nothing.
func TestStatsAdd(t *testing.T) {
	var a, b Stats
	poisonStats(t, &a, 1, frame.TransportData)
	poisonStats(t, &b, 1000, frame.TransportData, frame.TransportAck)

	var sum Stats
	sum.Add(a)
	sum.Add(b)
	v, av, bv := reflect.ValueOf(sum), reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Uint64 {
			continue
		}
		if got, want := v.Field(i).Uint(), av.Field(i).Uint()+bv.Field(i).Uint(); got != want {
			t.Errorf("Add: %s = %d, want %d", v.Type().Field(i).Name, got, want)
		}
	}
	wantKinds := map[frame.TransportKind]uint64{frame.TransportData: 1001, frame.TransportAck: 1000}
	if !reflect.DeepEqual(sum.ByKind, wantKinds) {
		t.Errorf("Add: ByKind = %v, want %v", sum.ByKind, wantKinds)
	}
	// The sum owns its map: the addends' maps are untouched.
	if a.ByKind[frame.TransportData] != 1 || len(a.ByKind) != 1 {
		t.Errorf("Add wrote through an addend's ByKind: %v", a.ByKind)
	}
	before := cloneStats(sum)
	sum.Add(Stats{})
	if !reflect.DeepEqual(sum, before) {
		t.Errorf("adding a zero Stats changed the sum: %+v, want %+v", sum, before)
	}
}
