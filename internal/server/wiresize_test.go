package server

import (
	"encoding/binary"
	"testing"

	"pde/internal/oracle"
	"pde/internal/setdist"
	"pde/internal/wire"
)

// TestWireRecordSizesMatchStructLayout is the regression test behind the
// wireframe analyzer's //pde:wire size markers: the record-size
// constants the length-prefix validation of both transports trusts (the
// query, answer and hop records are internal/wire's, shared by the HTTP
// codec and PDE2) must equal binary.Size of the structs that cross the
// wire. Before the int32
// migration, core.Estimate.Instance and setdist.Aggregates.Members/
// Unreachable were platform-width int — binary.Size returned -1 for
// every record below and the hand-packed offsets were the only thing
// holding the layout together.
func TestWireRecordSizesMatchStructLayout(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want int
	}{
		{"PDEQ query record", oracle.Query{}, wire.QueryRecordSize},
		{"PDEA answer record", oracle.Answer{}, wire.AnswerRecordSize},
		{"PDEH hop record", Hop{}, wire.HopRecordSize},
		{"PDSA aggregates half-record", setdist.Aggregates{}, 32},
		{"PDSA result record", setdist.Result{}, setDistAnswerRecordSize},
	}
	for _, tc := range cases {
		if got := binary.Size(tc.v); got != tc.want {
			t.Errorf("%s: binary.Size = %d, want %d (struct layout drifted from the codec constant)",
				tc.name, got, tc.want)
		}
	}
}
