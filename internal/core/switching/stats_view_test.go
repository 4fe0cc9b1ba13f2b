package switching

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestStatsViewOfTally pins Stats as a view over the member's event
// tally. Every field reads exactly one event type: emitting that type
// raises the field by one and leaves every other field alone, and the
// type's counter key is "switching/" plus the field's JSON tag — so
// Switch.Stats, the metrics registry and the BENCH "switching" block
// agree by construction. A Stats field added without a row here, or
// without a mapping in StatsOf, fails the test.
func TestStatsViewOfTally(t *testing.T) {
	table := []struct {
		field string
		typ   obs.EventType
	}{
		{"SwitchesCompleted", obs.EvEpochAdvance},
		{"Buffered", obs.EvBuffered},
		{"StaleDropped", obs.EvStaleDrop},
		{"TokenPasses", obs.EvTokenPass},
		{"WedgeTimeouts", obs.EvWedgeTimeout},
		{"TokensRegenerated", obs.EvTokenRegen},
		{"SwitchesAborted", obs.EvSwitchAbort},
		{"ForcedAdvances", obs.EvEpochForced},
		{"MalformedDropped", obs.EvMalformedDrop},
		{"Quarantines", obs.EvQuarantine},
		{"AuthFailed", obs.EvAuthFail},
		{"Shed", obs.EvShed},
		{"Backpressured", obs.EvBackpressureOn},
		{"RetriedSends", obs.EvRetrySend},
		{"SuspicionsRaised", obs.EvSuspicionRaise},
		{"SuspicionsCleared", obs.EvSuspicionClear},
		{"FlapPenalties", obs.EvFlapPenalty},
		{"DegradedSkips", obs.EvDegradedSkip},
		{"Reincludes", obs.EvReinclude},
	}
	st := reflect.TypeOf(Stats{})
	if len(table) != st.NumField() {
		t.Fatalf("table has %d rows, Stats has %d fields: map every field to its event type",
			len(table), st.NumField())
	}
	readBy := make(map[obs.EventType]string)
	for _, row := range table {
		f, ok := st.FieldByName(row.field)
		if !ok {
			t.Errorf("Stats has no field %s", row.field)
			continue
		}
		if prev, dup := readBy[row.typ]; dup {
			t.Errorf("%s and %s both read %v", prev, row.field, row.typ)
		}
		readBy[row.typ] = row.field

		s := &Switch{obs: obs.Nop}
		s.emit(obs.Event{Type: row.typ})
		got := reflect.ValueOf(s.Stats())
		for i := 0; i < st.NumField(); i++ {
			want := uint64(0)
			if i == f.Index[0] {
				want = 1
			}
			if n := got.Field(i).Uint(); n != want {
				t.Errorf("emit(%v): %s = %d, want %d", row.typ, st.Field(i).Name, n, want)
			}
		}

		key := obs.CounterKey(row.typ)
		if key == "" {
			t.Errorf("%s reads trace-only type %v", row.field, row.typ)
			continue
		}
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if want := "switching/" + tag; key != want {
			t.Errorf("%s: counter key %q, want %q (the field's JSON tag)", row.field, key, want)
		}
	}
}
