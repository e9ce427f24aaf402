package sim

import (
	"math"
	"testing"
)

// TestCountersAddToMatchesFieldSums pins AddTo field by field to the sums
// written out by value, bit for bit: the float fields take NaN (of two
// payloads), ±Inf, -0 and finite values in every pairing, and the integer
// fields wrap as uint64 addition does.
func TestCountersAddToMatchesFieldSums(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1.5, -2.25, 0.1, 1e308,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000abc),
	}
	for i, a := range floats {
		for j, b := range floats {
			x := Counters{
				RequestsReceived: uint64(i), RequestsSent: math.MaxUint64, ResponsesOK: 3, ResponsesErr: 4,
				ErrorsObserved: 5, LogMessages: 6, ErrorLogMessages: 7,
				CPUSeconds: a, BusySeconds: b,
				RxPackets: 10, TxPackets: 11, QueueDrops: uint64(j),
			}
			y := Counters{
				RequestsReceived: 1, RequestsSent: 2, ResponsesOK: math.MaxUint64, ResponsesErr: 40,
				ErrorsObserved: 50, LogMessages: 60, ErrorLogMessages: 70,
				CPUSeconds: b, BusySeconds: a,
				RxPackets: 100, TxPackets: 110, QueueDrops: 120,
			}
			want := [...]uint64{
				x.RequestsReceived + y.RequestsReceived, x.RequestsSent + y.RequestsSent,
				x.ResponsesOK + y.ResponsesOK, x.ResponsesErr + y.ResponsesErr,
				x.ErrorsObserved + y.ErrorsObserved, x.LogMessages + y.LogMessages,
				x.ErrorLogMessages + y.ErrorLogMessages,
				math.Float64bits(x.CPUSeconds + y.CPUSeconds), math.Float64bits(x.BusySeconds + y.BusySeconds),
				x.RxPackets + y.RxPackets, x.TxPackets + y.TxPackets, x.QueueDrops + y.QueueDrops,
			}
			got := x
			got.AddTo(&y)
			have := [...]uint64{
				got.RequestsReceived, got.RequestsSent, got.ResponsesOK, got.ResponsesErr,
				got.ErrorsObserved, got.LogMessages, got.ErrorLogMessages,
				math.Float64bits(got.CPUSeconds), math.Float64bits(got.BusySeconds),
				got.RxPackets, got.TxPackets, got.QueueDrops,
			}
			if have != want {
				t.Fatalf("%v + %v: AddTo gives %x, field sums %x", a, b, have, want)
			}
		}
	}
}
