package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/langmodel"
	"repro/internal/selection"
)

// rankedDB is one row of a rank response, as the client decodes it.
type rankedDB struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

type batchResponse struct {
	Results []struct {
		Ranked []rankedDB `json:"ranked"`
		Error  string     `json:"error"`
	} `json:"results"`
}

// httpClient is one closed-loop client's connection to a deployment.
type httpClient struct {
	c    *http.Client
	base string
	body bytes.Buffer
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// do sends req and reads the whole body into h.body. A non-2xx status is
// an error.
func (h *httpClient) do(req *http.Request) error {
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(h.body.Bytes()))
	}
	return nil
}

// rank is GET /rank for one query.
func (h *httpClient) rank(q, alg string, out *[]rankedDB) error {
	req, err := http.NewRequest(http.MethodGet,
		h.base+"/rank?alg="+alg+"&k="+strconv.Itoa(rankK)+"&q="+url.QueryEscape(q), nil)
	if err != nil {
		return err
	}
	if err := h.do(req); err != nil {
		return err
	}
	*out = (*out)[:0]
	return json.Unmarshal(h.body.Bytes(), out)
}

type batchRequest struct {
	Queries []string `json:"queries"`
	Alg     string   `json:"alg"`
	K       int      `json:"k"`
}

// rankBatch is POST /rank/batch.
func (h *httpClient) rankBatch(queries []string, alg string, out *batchResponse) error {
	payload, err := json.Marshal(batchRequest{Queries: queries, Alg: alg, K: rankK})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, h.base+"/rank/batch", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if err := h.do(req); err != nil {
		return err
	}
	*out = batchResponse{}
	if err := json.Unmarshal(h.body.Bytes(), out); err != nil {
		return err
	}
	if len(out.Results) != len(queries) {
		return fmt.Errorf("batch of %d answered with %d items", len(queries), len(out.Results))
	}
	return nil
}

// fingerprint hashes a ranking's names and exact score bits, in order.
func fingerprint(rows []rankedDB) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range rows {
		h.Write([]byte(r.Name))
		h.Write([]byte{0})
		bits := math.Float64bits(r.Score)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// referenceRank is the map scorer's top-k for q, the reference every
// compiled rank path must equal bit for bit.
func referenceRank(an analysis.Analyzer, alg selection.Algorithm, q string, names []string, models []*langmodel.Model) []rankedDB {
	ranked := selection.Rank(alg, an.Tokens(q), models)
	if len(ranked) > rankK {
		ranked = ranked[:rankK]
	}
	out := make([]rankedDB, len(ranked))
	for i, r := range ranked {
		out[i] = rankedDB{Name: names[r.DB], Score: r.Score}
	}
	return out
}

// scoreMatch checks a ranking against the reference scores of every
// database, with tie order free: each row's score must equal its
// database's reference score bit for bit, rows must be best first, and
// the scores returned must be exactly the k best reference scores.
func scoreMatch(rows []fanEntry, ref []float64) bool {
	want := append([]float64(nil), ref...)
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	if len(want) > rankK {
		want = want[:rankK]
	}
	if len(rows) != len(want) {
		return false
	}
	seen := make(map[int32]bool, len(rows))
	for i, r := range rows {
		if r.db < 0 || int(r.db) >= len(ref) || seen[r.db] ||
			math.Float64bits(ref[r.db]) != math.Float64bits(r.score) ||
			math.Float64bits(want[i]) != math.Float64bits(r.score) {
			return false
		}
		seen[r.db] = true
	}
	return true
}

// wellFormed checks what can be checked of a ranking whose models are
// changing underneath it: a full top-k of known databases, best first.
func wellFormed(rows []rankedDB, byName map[string]int) bool {
	if len(rows) != rankK {
		return false
	}
	for i, r := range rows {
		if _, ok := byName[r.Name]; !ok {
			return false
		}
		if i > 0 && rows[i-1].Score < r.Score {
			return false
		}
	}
	return true
}

func nameIndex(names []string) map[string]int {
	m := make(map[string]int, len(names))
	for i, n := range names {
		m[n] = i
	}
	return m
}
