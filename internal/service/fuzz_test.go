package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzSpecKey checks the request-canonicalisation contract under
// arbitrary field values: appendKey is deterministic, append-safe
// (extends the caller's buffer without disturbing its prefix), agrees
// with cacheKey, its byte and string signatures coincide, and normalize
// is idempotent — the properties the plan cache, the coalescing group
// and the batch dedup map all lean on.
func FuzzSpecKey(f *testing.F) {
	f.Add("uniform", 1.0, 0.1, 0.5, 0.0, 0, "", uint64(1), 8, "HF", 0.1, 0.0)
	f.Add("fixed", 2.5, 0.0, 0.0, 0.3, 0, "", uint64(0), 64, "ba-hf", 0.3, 2.0)
	f.Add("list", 0.0, 0.0, 0.0, 0.25, 1000, "", uint64(9), 16, " PHF ", 0.25, 0.0)
	f.Add("quadrature", 0.0, 0.0, 0.0, 0.0, 0, "midpoint", uint64(3), 4, "BA", 0.0, 1.0)
	f.Add("", -1.0, 2.0, -3.0, 9.9, -5, "weird", uint64(1<<63), -2, "\x00\xff", -0.5, -1.0)
	f.Fuzz(func(t *testing.T, family string, weight, lo, hi, sa float64, elems int,
		split string, seed uint64, n int, alg string, alpha, kappa float64) {
		req := BalanceRequest{
			Spec: ProblemSpec{Family: family, Weight: weight, Lo: lo, Hi: hi,
				SplitAlpha: sa, Elems: elems, Split: split, Seed: seed},
			N: n, Algorithm: alg, Alpha: alpha, Kappa: kappa,
		}
		req.normalize()
		again := req
		again.normalize()
		// Compare canonical keys, not structs: NaN-valued fields are
		// never equal to themselves, but canonicalise identically.
		if again.cacheKey() != req.cacheKey() {
			t.Fatalf("normalize not idempotent: %+v vs %+v", req, again)
		}

		key1 := req.appendKey(nil)
		key2 := req.appendKey(nil)
		if !bytes.Equal(key1, key2) {
			t.Fatalf("appendKey not deterministic: %q vs %q", key1, key2)
		}
		if req.cacheKey() != string(key1) {
			t.Fatalf("cacheKey %q != appendKey %q", req.cacheKey(), key1)
		}
		prefix := []byte("prefix|")
		ext := req.appendKey(append([]byte(nil), prefix...))
		if !bytes.HasPrefix(ext, prefix) || !bytes.Equal(ext[len(prefix):], key1) {
			t.Fatalf("appendKey disturbed the caller's buffer: %q", ext)
		}
		if signature(key1) != signature(string(key1)) {
			t.Fatalf("signature mismatch: bytes %s, string %s",
				signature(key1), signature(string(key1)))
		}
	})
}

// handlerPaths are the POST endpoints FuzzHandlers selects between.
var handlerPaths = [...]string{"/v1/balance", "/v1/balance:batch", "/v1/rebalance"}

// FuzzHandlers throws arbitrary JSON bodies at the POST endpoints
// through the real mux and asserts the serving contract: no panic, and
// every response is either a 200 carrying valid JSON or a typed error
// envelope with a non-empty code. endpoint selects the path, modulo the
// endpoint count. The server runs with a small MaxN so a fuzzer-crafted
// n cannot turn one request into unbounded compute — the hardening this
// target motivated.
func FuzzHandlers(f *testing.F) {
	srv := New(Config{Workers: 2, MaxN: 256, DefaultDeadline: time.Second})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	h := srv.Handler()

	f.Add([]byte(`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":8}`), uint8(0))
	f.Add([]byte(`{"items":[{"spec":{"family":"fixed","split_alpha":0.3},"n":4,"algorithm":"BA"}]}`), uint8(1))
	f.Add([]byte(`{"spec":{"family":"uniform","lo":0.1,"hi":0.5},"n":1000000000}`), uint8(0))
	f.Add([]byte(`{"spec":{"family":"list","elems":-1,"split_alpha":0.9},"n":0}`), uint8(0))
	f.Add([]byte(`{"items":[]}`), uint8(1))
	f.Add([]byte(`{"unknown_field":true}`), uint8(0))
	f.Add([]byte(`[1,2,3]`), uint8(1))
	f.Add([]byte(`{"spec":{"family":"fem","seed":7},"n":3,"algorithm":"parallel-PHF","alpha":0.2}`), uint8(0))
	f.Add([]byte(`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":7},"n":4,"alpha":0.1}`), uint8(2))
	f.Fuzz(func(t *testing.T, body []byte, endpoint uint8) {
		path := handlerPaths[int(endpoint)%len(handlerPaths)]
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		raw := rec.Body.Bytes()
		if rec.Code == 200 {
			var any json.RawMessage
			if err := json.Unmarshal(raw, &any); err != nil {
				t.Fatalf("200 response is not valid JSON: %v\n%s", err, raw)
			}
			return
		}
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatalf("status %d response is not an error envelope: %v\n%s", rec.Code, err, raw)
		}
		if eb.Error.Code == "" {
			t.Fatalf("status %d error envelope has empty code: %s", rec.Code, raw)
		}
	})
}

// TestMaxNRejected pins the admission bound FuzzHandlers relies on: a
// request whose n exceeds Config.MaxN is rejected with n_too_large
// before any compute, on the single, rebalance and batch endpoints.
func TestMaxNRejected(t *testing.T) {
	srv := New(Config{Workers: 1, MaxN: 100})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	for path, body := range map[string]string{
		"/v1/balance":   `{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":101}`,
		"/v1/rebalance": `{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":101,"alpha":0.1}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader([]byte(body))))
		if rec.Code != 400 {
			t.Fatalf("%s: status %d, want 400", path, rec.Code)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "n_too_large" {
			t.Fatalf("%s: got %s (err %v), want code n_too_large", path, rec.Body.Bytes(), err)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/balance:batch", bytes.NewReader([]byte(
		`{"items":[{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":100},`+
			`{"spec":{"family":"uniform","lo":0.1,"hi":0.5,"seed":1},"n":101}]}`))))
	if rec.Code != 200 {
		t.Fatalf("batch status %d, want 200", rec.Code)
	}
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if br.Items[0].Error != nil || br.Items[0].Plan == nil {
		t.Fatalf("in-bound item rejected: %+v", br.Items[0])
	}
	if br.Items[1].Error == nil || br.Items[1].Error.Code != "n_too_large" {
		t.Fatalf("out-of-bound item not rejected: %+v", br.Items[1])
	}
}
