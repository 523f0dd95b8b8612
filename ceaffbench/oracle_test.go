package main

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
)

var (
	testOracleOnce sync.Once
	testOracle     *oracle
	testOracleErr  error
)

// smallOracle is a reference engine over a tiny corpus, shared by the tests.
func smallOracle(t *testing.T) *oracle {
	t.Helper()
	testOracleOnce.Do(func() {
		w := &workload{dataset: "SRPRS EN-FR*", scale: 0.05}
		in, err := buildInput(w.dataset, w.scale)
		if err != nil {
			testOracleErr = err
			return
		}
		a, err := referenceAligner(context.Background(), w, in)
		if err != nil {
			testOracleErr = err
			return
		}
		testOracle = newOracle(a)
	})
	if testOracleErr != nil {
		t.Fatal(testOracleErr)
	}
	return testOracle
}

// answered is a read the system under test answered 200 with the given
// body hash, latencyMs after its due time.
func answered(o op, hash uint64, latencyMs float64) record {
	return record{phase: phaseMeasure, op: &o, due: 0, done: int64(latencyMs * 1e6), status: http.StatusOK, hash: hash}
}

func TestOracleMismatchIsAFailedOperation(t *testing.T) {
	or := smallOracle(t)
	align := op{kind: opAlign, rows: []int{0, 3}}
	cand := op{kind: opCandidates, rows: []int{2}, k: 5}
	ha, err := or.hash(&align)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := or.hash(&cand)
	if err != nil {
		t.Fatal(err)
	}
	recs := []record{
		answered(align, ha, 1),
		answered(cand, hc, 1),
		answered(align, ha^1, 1), // one flipped bit in the body hash
		answered(cand, ha, 1),    // another request's bytes
	}
	partial := answered(align, ha, 1)
	partial.partial = true
	skewed := answered(align, ha, 1)
	skewed.version = 9
	recs = append(recs, partial, skewed)

	compared, err := judge(recs, map[uint64]*oracle{0: or})
	if err != nil {
		t.Fatal(err)
	}
	if compared != 4 {
		t.Errorf("compared %d reads byte for byte, want 4", compared)
	}
	wantFailed := []bool{false, false, true, true, true, true}
	for i, r := range recs {
		if r.failed != wantFailed[i] {
			t.Errorf("record %d (%s): failed=%v (%s), want %v", i, r.op.key(), r.failed, r.why, wantFailed[i])
		}
	}
	if !strings.Contains(recs[2].why, "differ") {
		t.Errorf("mismatch reason %q does not name the byte difference", recs[2].why)
	}
	if c := tally(recs, phaseMeasure); c.Sent != 6 || c.OK != 2 || c.Failed != 4 {
		t.Errorf("tally = %+v, want sent 6 ok 2 failed 4", c)
	}
}

// A read that was refused, shed or lost counts as a miss of the latency
// limit, however quickly the refusal came; writes are not reads.
func TestSLOFracCountsRefusalsAsMisses(t *testing.T) {
	or := smallOracle(t)
	align := op{kind: opAlign, rows: []int{1}}
	h, err := or.hash(&align)
	if err != nil {
		t.Fatal(err)
	}
	fast := answered(align, h, 1)
	slow := answered(align, h, 30)
	shed := answered(align, h, 1)
	shed.status = http.StatusServiceUnavailable
	lost := answered(align, h, 1)
	lost.status, lost.err = 0, "connection reset by peer"
	mut := op{kind: opMutate}
	write := record{phase: phaseMeasure, op: &mut, done: 1e6, status: http.StatusOK}
	recs := []record{fast, slow, shed, lost, write}
	if _, err := judge(recs, map[uint64]*oracle{0: or}); err != nil {
		t.Fatal(err)
	}
	if got := sloFrac(recs, phaseMeasure, 10); got != 0.25 {
		t.Errorf("slo_frac = %v, want 0.25 (1 of 4 reads answered correctly within 10 ms)", got)
	}
	// Refused reads carry no latency sample of their own.
	if lat := readLatencies(recs, phaseMeasure); len(lat) != 2 {
		t.Errorf("latency samples = %v, want the 2 answered reads", lat)
	}
}

func TestUnseenWriteFails(t *testing.T) {
	mut := op{kind: opMutate}
	recs := []record{
		{op: &mut, sent: 10, seq: 1},
		{op: &mut, sent: 20, seq: 2},
	}
	delays, unseen := visibility(recs, []observation{{at: 5, version: 2}, {at: 15, version: 1}})
	if len(delays) != 1 || delays[0] != 5e-9 {
		t.Errorf("delays = %v, want one of 5ns", delays)
	}
	if len(unseen) != 1 || unseen[0].seq != 2 {
		t.Errorf("unseen = %v, want the write acknowledged at seq 2", unseen)
	}
}
