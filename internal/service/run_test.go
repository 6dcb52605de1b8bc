package service

import "testing"

// TestExecutePartitionedMatchesSerial: the engine is not part of the
// answer. A partitioned spec returns the serial run's timings and
// counters exactly; only the trace, which the partitioned engine cannot
// record, is missing.
func TestExecutePartitionedMatchesSerial(t *testing.T) {
	run := func(partitions int) Result {
		c, err := Spec{Topo: "clos2", Radix: 8, Nodes: 32, Partitions: partitions, Warmup: 2, Iters: 10}.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		out, err := Execute(c)
		if err != nil {
			t.Fatal(err)
		}
		return out.Result
	}
	serial, part := run(1), run(2)
	if !serial.Traced || part.Traced {
		t.Errorf("traced: serial %v partitioned %v, want true false", serial.Traced, part.Traced)
	}
	if part.MeanMicros != serial.MeanMicros || part.Barriers != serial.Barriers ||
		part.Retrans != serial.Retrans || part.StartNs != serial.StartNs || part.EndNs != serial.EndNs {
		t.Errorf("partitioned result differs from serial:\n serial %+v\n   part %+v", serial, part)
	}
}
