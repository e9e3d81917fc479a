package cluster_test

// The 3-node integration tests: cluster.Node wired to service.Server the
// way cmd/lbserve wires them, exercised over real HTTP. These are the
// acceptance tests of the cluster subsystem: a key is planned exactly
// once cluster-wide under concurrent misses on every node, and killing a
// node mid-traffic leaves every key servable by the survivors.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bisectlb/internal/cluster"
	"bisectlb/internal/service"
)

// clusterNode is one wired node: the HTTP serving tier plus its peer.
type clusterNode struct {
	srv  *service.Server
	node *cluster.Node
	url  string
}

func startClusterNodes(t *testing.T, k int) []*clusterNode {
	t.Helper()
	out := make([]*clusterNode, k)
	for i := range out {
		srv := service.New(service.Config{Workers: 2})
		node, err := cluster.Start(cluster.Config{
			Addr:         "127.0.0.1:0",
			Heartbeat:    25 * time.Millisecond,
			DeadAfter:    150 * time.Millisecond,
			PeerTimeout:  2 * time.Second,
			ReplInterval: 50 * time.Millisecond,
			Registry:     srv.Registry(),
			Fill:         srv.ClusterFill,
			Store:        srv.ClusterStore,
			Load:         srv.ClusterLoad,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		t.Cleanup(node.Close)
		srv.SetCluster(node)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		out[i] = &clusterNode{srv: srv, node: node, url: "http://" + addr.String()}
	}
	// Static full membership, as lbserve -peers would configure.
	for i := 1; i < k; i++ {
		if err := out[i].node.Join(out[0].node.Addr()); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	// Wait until every ring sees all k members.
	deadline := time.Now().Add(3 * time.Second)
	for {
		converged := true
		for _, n := range out {
			if n.srv.Registry().Gauge("service.cluster.live").Value() != int64(k) {
				converged = false
			}
		}
		if converged {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatal("rings did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func balanceBody(seed uint64, n int) []byte {
	return []byte(fmt.Sprintf(
		`{"spec":{"family":"uniform","lo":0.3,"hi":0.5,"seed":%d},"n":%d,"algorithm":"BA"}`, seed, n))
}

func postBalance(url string, body []byte) (int, string, error) {
	resp, err := http.Post(url+"/v1/balance", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), nil
}

func plansComputedTotal(nodes []*clusterNode) int64 {
	var total int64
	for _, n := range nodes {
		total += n.srv.Registry().Counter("service.plans_computed").Value()
	}
	return total
}

// TestClusterExactlyOncePlanning is the tentpole acceptance test:
// concurrent misses for one key on ALL nodes run the planner exactly
// once cluster-wide — local singleflight on each node plus owner routing
// collapse 24 concurrent requests into one computePlan call.
func TestClusterExactlyOncePlanning(t *testing.T) {
	nodes := startClusterNodes(t, 3)
	body := balanceBody(42, 64)

	var wg sync.WaitGroup
	errs := make(chan error, 3*8)
	for _, n := range nodes {
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				code, respBody, err := postBalance(url, body)
				if err != nil {
					errs <- err
					return
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", code, respBody)
				}
			}(n.url)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if total := plansComputedTotal(nodes); total != 1 {
		t.Fatalf("cluster computed the plan %d times, want exactly 1", total)
	}
	// Every repeat request is now a cache hit somewhere: local on the
	// proxying nodes (the fetched plan was installed) and on the owner.
	for i, n := range nodes {
		code, respBody, err := postBalance(n.url, body)
		if err != nil || code != http.StatusOK {
			t.Fatalf("node %d repeat: code=%d err=%v", i, code, err)
		}
		var resp struct {
			Signature string `json:"signature"`
		}
		if err := json.Unmarshal([]byte(respBody), &resp); err != nil || resp.Signature == "" {
			t.Fatalf("node %d: bad response %q", i, respBody)
		}
	}
	if total := plansComputedTotal(nodes); total != 1 {
		t.Fatalf("repeat traffic recomputed: %d total executions", total)
	}
	// The proxy path actually ran: at least one node fetched remotely.
	var proxied int64
	for _, n := range nodes {
		proxied += n.srv.Registry().Counter("service.cluster.proxied").Value()
	}
	if proxied == 0 {
		t.Fatal("no request was proxied — the test did not exercise the peer path")
	}
}

// TestClusterBatchPlannedAtOwner: a batch item goes through the same
// get-or-fill as a /v1/balance request, so the same batch sent to every
// node in turn is planned once cluster-wide — at the key's ring owner,
// with the other nodes proxying to it — and later single requests for
// the key plan nothing.
func TestClusterBatchPlannedAtOwner(t *testing.T) {
	nodes := startClusterNodes(t, 3)
	body := balanceBody(77, 64)
	batch := []byte(`{"items":[` + string(body) + `]}`)
	for i, n := range nodes {
		resp, err := http.Post(n.url+"/v1/balance:batch", "application/json", bytes.NewReader(batch))
		if err != nil {
			t.Fatalf("node %d batch: %v", i, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var br service.BatchResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &br) != nil ||
			len(br.Items) != 1 || br.Items[0].Plan == nil {
			t.Fatalf("node %d batch: status %d body %s", i, resp.StatusCode, raw)
		}
	}
	for i, n := range nodes {
		if code, respBody, err := postBalance(n.url, body); err != nil || code != http.StatusOK {
			t.Fatalf("node %d balance: code=%d err=%v body=%s", i, code, err, respBody)
		}
	}
	if total := plansComputedTotal(nodes); total != 1 {
		t.Fatalf("cluster computed the batch item %d times, want exactly 1", total)
	}
	var proxied int64
	for _, n := range nodes {
		proxied += n.srv.Registry().Counter("service.cluster.proxied").Value()
	}
	if proxied < 1 {
		t.Fatal("no batch item was proxied to its owner")
	}
}

// TestClusterDistinctKeysSpreadOwnership sanity-checks the sharding:
// many distinct keys driven through one node are computed across the
// cluster (remote fills happen), and each key exactly once.
func TestClusterDistinctKeysSpreadOwnership(t *testing.T) {
	nodes := startClusterNodes(t, 3)
	const keys = 24
	for i := 0; i < keys; i++ {
		code, respBody, err := postBalance(nodes[0].url, balanceBody(uint64(1000+i), 32))
		if err != nil || code != http.StatusOK {
			t.Fatalf("key %d: code=%d err=%v body=%s", i, code, err, respBody)
		}
	}
	if total := plansComputedTotal(nodes); total != keys {
		t.Fatalf("computed %d plans for %d distinct keys", total, keys)
	}
	remote := nodes[0].srv.Registry().Counter("service.cluster.proxied").Value()
	if remote == 0 {
		t.Fatal("24 distinct keys all landed on node 0 — ownership is not spreading")
	}
}

// TestClusterFailoverServesEveryKey kills one node and checks the
// survivors keep serving its key range (failover to local compute or a
// new owner), with the ring healed.
func TestClusterFailoverServesEveryKey(t *testing.T) {
	nodes := startClusterNodes(t, 3)
	victim := nodes[2]
	victim.node.Close()

	// Survivors notice the death and shrink the ring.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if nodes[0].srv.Registry().Gauge("service.cluster.live").Value() == 2 &&
			nodes[1].srv.Registry().Gauge("service.cluster.live").Value() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never excluded the dead peer")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every key is servable by both survivors, whichever range it was in.
	for i := 0; i < 24; i++ {
		for j, n := range nodes[:2] {
			code, respBody, err := postBalance(n.url, balanceBody(uint64(5000+i), 16))
			if err != nil || code != http.StatusOK {
				t.Fatalf("survivor %d key %d: code=%d err=%v body=%s", j, i, code, err, respBody)
			}
		}
	}

	// /healthz on a survivor reports the cluster view with the dead peer.
	resp, err := http.Get(nodes[0].url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var hz struct {
		Cluster struct {
			Self  string `json:"self"`
			Live  int    `json:"live"`
			Peers []struct {
				Addr  string `json:"addr"`
				Alive bool   `json:"alive"`
			} `json:"peers"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(raw, &hz); err != nil {
		t.Fatalf("healthz: %v (%s)", err, raw)
	}
	if hz.Cluster.Live != 2 || len(hz.Cluster.Peers) != 2 {
		t.Fatalf("healthz cluster view: %s", raw)
	}
	deadSeen := false
	for _, p := range hz.Cluster.Peers {
		if p.Addr == victim.node.Addr() && !p.Alive {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Fatalf("dead peer not reported in healthz: %s", raw)
	}
	if !strings.Contains(string(raw), `"snapshot"`) {
		t.Fatalf("healthz missing snapshot status: %s", raw)
	}
}
