package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"mrcprm"
)

// TestVerifyReplayUsesShardCluster drives a virtual two-shard daemon whose
// machines run at two speeds with one map and one reduce slot each, and
// requires -verify's local replay to reproduce every served fingerprint.
// A replay on a uniform 2+2 cluster of the same size diverges here, and so
// does one under DeterministicConfig when the daemon's manager runs a
// different deferral lead with warm start on.
func TestVerifyReplayUsesShardCluster(t *testing.T) {
	warm := mrcprm.DeterministicConfig()
	warm.DeferralLead = time.Second
	warm.WarmStart = true
	for _, tc := range []struct {
		name, policy string
		manager      mrcprm.Config
	}{
		{"fifo", "fifo", mrcprm.DeterministicConfig()},
		{"mrcp", "mrcp", mrcprm.DeterministicConfig()},
		{"mrcp-deferral-warmstart", "mrcp", warm},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster, err := mrcprm.TwoClassCluster(4, 1, 1, 2).Cluster()
			if err != nil {
				t.Fatal(err)
			}
			r, err := mrcprm.NewShardRouter(mrcprm.ShardConfig{
				Base: mrcprm.ServiceConfig{Cluster: cluster, Policy: tc.policy,
					Manager: tc.manager, Mode: mrcprm.ServiceVirtual},
				Shards: 2,
				Seed:   1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			srv := httptest.NewServer(mrcprm.NewServiceHandler(r))
			defer srv.Close()

			wcfg := mrcprm.DefaultSyntheticWorkload()
			wcfg.NumResources = 2
			stream, err := wcfg.Generate(6, mrcprm.NewStream(3, 0xfeed))
			if err != nil {
				t.Fatal(err)
			}
			specs := make([]mrcprm.JobSpec, len(stream))
			for i, j := range stream {
				specs[i] = mrcprm.JobSpecOf(j)
			}
			sort.SliceStable(specs, func(i, k int) bool { return specs[i].ArrivalMS < specs[k].ArrivalMS })
			client := srv.Client()
			var accepted []acceptedJob
			for _, spec := range specs {
				var resp struct {
					ID int `json:"id"`
				}
				if err := exchange(client, srv.URL+"/v1/jobs", spec, &resp); err != nil {
					t.Fatal(err)
				}
				accepted = append(accepted, acceptedJob{id: resp.ID, spec: spec})
			}
			if err := exchange(client, srv.URL+"/v1/admin/run", map[string]bool{"close": true}, nil); err != nil {
				t.Fatal(err)
			}
			var snap mrcprm.ServiceSnapshot
			for deadline := time.Now().Add(time.Minute); !snap.Finished; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("run did not finish")
				}
				if err := getJSON(client, srv.URL+"/v1/metrics", &snap); err != nil {
					t.Fatal(err)
				}
			}
			if snap.JobsCompleted != len(accepted) {
				t.Fatalf("%d of %d jobs completed", snap.JobsCompleted, len(accepted))
			}
			if err := verifyReplay(snap, accepted); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// exchange POSTs body and decodes a 2xx reply into out (nil skips it).
func exchange(client *http.Client, url string, body, out any) error {
	status, reply, err := postJSON(client, url, body)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("POST %s: %d %s", url, status, reply)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(reply, out)
}
