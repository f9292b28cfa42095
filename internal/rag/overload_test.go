package rag

import (
	"strings"
	"testing"
	"time"
)

func TestOverloadOptionsNormalize(t *testing.T) {
	cases := []struct {
		name    string
		o       OverloadOptions
		wantErr string // substring; "" means valid
	}{
		{name: "zero value", o: OverloadOptions{}},
		{name: "full set", o: OverloadOptions{QueueCap: 16, Brownout: true,
			RetrievalBudget: 300 * time.Millisecond, GenerationBudget: 500 * time.Millisecond,
			Window: 32, MaxShed: 0.5}},
		{name: "negative queue cap", o: OverloadOptions{QueueCap: -1}, wantErr: "QueueCap"},
		{name: "negative retrieval budget", o: OverloadOptions{RetrievalBudget: -time.Second}, wantErr: "budget"},
		{name: "negative generation budget", o: OverloadOptions{GenerationBudget: -time.Second}, wantErr: "budget"},
		{name: "negative window", o: OverloadOptions{Window: -5}, wantErr: "Window"},
		{name: "shed of one", o: OverloadOptions{MaxShed: 1}, wantErr: "MaxShed"},
		{name: "negative shed", o: OverloadOptions{MaxShed: -0.2}, wantErr: "MaxShed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.o
			err := o.normalize()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if o.QueueCap == 0 {
					t.Fatal("normalize left the default queue cap at 0")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not name %s", err, tc.wantErr)
			}
		})
	}
}

// TestOverloadIncompatibleModes: every serving mode that cannot honor
// overload control must say so up front instead of silently ignoring
// the option; live ingest and fault-free clusters, which can, must run
// it.
func TestOverloadIncompatibleModes(t *testing.T) {
	ov := &OverloadOptions{QueueCap: 16}

	mt := mtOpts(t)
	mt.Overload = ov
	mt.SharedQueue = true
	if _, err := RunMultiTenant(mt); err == nil || !strings.Contains(err.Error(), "shared-queue") {
		t.Fatalf("SharedQueue+Overload: %v", err)
	}

	ao := AdaptiveOptions{Options: baseOpts(t, VLiteRAG, 10)}
	ao.Overload = ov
	if _, err := RunAdaptive(ao); err == nil || !strings.Contains(err.Error(), "overload") {
		t.Fatalf("adaptive+Overload: %v", err)
	}

	// A fault-free cluster gives every replica its own rig, on one
	// timeline and on the sharded exchange alike.
	for _, netDelay := range []time.Duration{0, time.Millisecond} {
		co := baseOpts(t, VLiteRAG, 20)
		co.Overload = ov
		co.NetDelay = netDelay
		res, err := RunCluster(co, 2, "")
		if err != nil {
			t.Fatalf("cluster+Overload (NetDelay %v): %v", netDelay, err)
		}
		if res.Overload == nil || len(res.Overload.Rejected) != 1 {
			t.Fatalf("cluster+Overload (NetDelay %v): report %+v", netDelay, res.Overload)
		}
	}

	// Under faults the resilient router's degradation and brownout's
	// first rung would both write req.Degrade.
	fo := stormOpts(t)
	fo.Overload = ov
	if _, err := RunCluster(fo, 3, ""); err == nil || !strings.Contains(err.Error(), "overload") {
		t.Fatalf("faults+Overload: %v", err)
	}

	// Compaction attaches the same adapt controller, so it is refused
	// alongside overload control for the same reason.
	lo := LiveOptions{Options: baseOpts(t, VLiteRAG, 10)}
	lo.Overload = ov
	lo.Ingest.InsertRate = 4
	lo.Ingest.Compaction = true
	if _, err := RunLive(lo); err == nil || !strings.Contains(err.Error(), "overload") {
		t.Fatalf("live-compaction+Overload: %v", err)
	}

	// Live ingest without the controller composes with overload control.
	lo.Ingest.Compaction = false
	res, err := RunLive(lo)
	if err != nil {
		t.Fatalf("live-ingest+Overload: %v", err)
	}
	if res.Overload == nil {
		t.Fatal("live-ingest+Overload returned no overload report")
	}
}

// TestRunOverloadSingleNode: the single-node path constructs the rig,
// reports the admission outcome, and keeps the queue bound honest.
func TestRunOverloadSingleNode(t *testing.T) {
	o := baseOpts(t, VLiteRAG, 10)
	o.Overload = &OverloadOptions{QueueCap: 16, Brownout: true}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overload == nil {
		t.Fatal("overload run returned no report")
	}
	if res.Overload.QueueCap != 16 {
		t.Fatalf("report echoes cap %d, want 16", res.Overload.QueueCap)
	}
	if got := len(res.Overload.Rejected); got != 1 {
		t.Fatalf("single-tenant report has %d rejection counters", got)
	}
	if !res.Overload.Brownout {
		t.Fatal("report dropped the Brownout flag")
	}
	if res.Generated == 0 {
		t.Fatal("overload run served nothing")
	}
}

// TestRunMultiTenantOverload: the bursty bronze tenant drives the
// bounded multi-tenant path — queues never exceed the cap, per-tenant
// rejections sum to the total, and the brownout controller reports a
// coherent trajectory.
func TestRunMultiTenantOverload(t *testing.T) {
	mt := mtOpts(t)
	mt.Overload = &OverloadOptions{QueueCap: 8, Brownout: true}
	res, err := RunMultiTenant(mt)
	if err != nil {
		t.Fatal(err)
	}
	ov := res.Overload
	if ov == nil {
		t.Fatal("no overload report")
	}
	total := 0
	for _, tr := range res.Tenants {
		if tr.PeakQueue > 8 {
			t.Errorf("tenant %s queue %d exceeds cap 8", tr.Name, tr.PeakQueue)
		}
		if tr.Rejected < 0 {
			t.Errorf("tenant %s negative rejections", tr.Name)
		}
		total += tr.Rejected
	}
	if ov.RejectedTotal != total {
		t.Fatalf("report total %d, per-tenant sum %d", ov.RejectedTotal, total)
	}
	if ov.MaxLevel < 0 || ov.MaxLevel > 5 {
		t.Fatalf("max level %d outside the ladder", ov.MaxLevel)
	}
	if ov.BrownoutShare < 0 || ov.BrownoutShare > 1 {
		t.Fatalf("brownout share %v outside [0,1]", ov.BrownoutShare)
	}
	if ov.MaxLevel > 0 && ov.TimeInBrownout == 0 {
		t.Fatal("ladder moved but no time in brownout recorded")
	}
}

// TestRunMultiTenantOverloadSharded: the same option set on the
// sharded engine — per-replica rigs keep the bound per replica, and
// the merged report sums rejections across replicas.
func TestRunMultiTenantOverloadSharded(t *testing.T) {
	mt := mtOpts(t)
	mt.Overload = &OverloadOptions{QueueCap: 8, Brownout: true}
	mt.Replicas, mt.Workers = 2, 2
	res, err := RunMultiTenant(mt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overload == nil {
		t.Fatal("sharded run dropped the overload report")
	}
	total := 0
	for _, tr := range res.Tenants {
		total += tr.Rejected
	}
	if res.Overload.RejectedTotal != total {
		t.Fatalf("merged total %d, per-tenant sum %d", res.Overload.RejectedTotal, total)
	}
	for _, tr := range res.Tenants {
		if tr.Summary.N == 0 {
			t.Errorf("tenant %s saw no requests on the sharded path", tr.Name)
		}
	}
}
