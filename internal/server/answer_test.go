package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/obs"
)

// answerBackend is an index whose answers a test chooses, down to the bits:
// every range and kNN returns pts, every count n, every point lookup and
// delete found. It counts the inserts it is asked for. It is its own
// ReadView.
type answerBackend struct {
	Backend // nil: the /v1 routes call only View, Insert and Delete
	pts     []wazi.Point
	n       int
	found   bool
	inserts int
}

func (b *answerBackend) View() ReadView { return b }
func (b *answerBackend) RangeQueryAppend(dst []wazi.Point, _ wazi.Rect) []wazi.Point {
	return append(dst, b.pts...)
}
func (b *answerBackend) RangeCount(wazi.Rect) int   { return b.n }
func (b *answerBackend) PointQuery(wazi.Point) bool { return b.found }
func (b *answerBackend) KNNAppend(dst []wazi.Point, _ wazi.Point, _ int) []wazi.Point {
	return append(dst, b.pts...)
}
func (b *answerBackend) Insert(wazi.Point)      { b.inserts++ }
func (b *answerBackend) Delete(wazi.Point) bool { return b.found }

// The answer shapes as encoding/json marshals them: the reference every
// appended answer must match byte for byte, plus the newline json.Encoder
// ends a value with.
type (
	rangeResp struct {
		Count  int          `json:"count"`
		Points []wazi.Point `json:"points"`
	}
	countResp struct {
		Count int `json:"count"`
	}
	foundResp struct {
		Found bool `json:"found"`
	}
	okResp struct {
		OK bool `json:"ok"`
	}
	batchResp struct {
		Results []any `json:"results"`
	}
)

// TestNonFiniteAnswerIs500: the library indexes ±Inf and NaN, but JSON has
// no number for them. An answer holding one fails its request with a 500 in
// the JSON error shape, counted under code="500", instead of a 200 whose
// body stops where encoding did.
func TestNonFiniteAnswerIs500(t *testing.T) {
	b := &answerBackend{pts: []wazi.Point{{X: 0.5, Y: 0.5}, {X: math.Inf(1), Y: 0.5}}}
	srv := New(b, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tt := range []struct{ route, body string }{
		{"knn", `{"point":{"X":0.5,"Y":0.5},"k":2}`},
		{"batch", `{"ops":[{"op":"count","rect":{"MinX":0,"MinY":0,"MaxX":1,"MaxY":1}},{"op":"knn","point":{"X":0.5,"Y":0.5},"k":2}]}`},
	} {
		code, v := post(t, ts, "/v1/"+tt.route, tt.body)
		if code != http.StatusInternalServerError {
			t.Fatalf("%s with a +Inf answer: status %d (%v), want 500", tt.route, code, v)
		}
		if msg, _ := v["error"].(string); !strings.Contains(msg, "non-finite") {
			t.Errorf("%s: 500 body %v lacks the error", tt.route, v)
		}
		if got := srv.reg.Counter(requestsTotal, "", obs.L("route", tt.route), obs.L("code", "500")).Value(); got != 1 {
			t.Errorf(`wazi_http_requests_total{route=%q,code="500"} = %d, want 1`, tt.route, got)
		}
	}
	if got := srv.panics.Value(); got != 0 {
		t.Errorf("%d panics counted; a non-finite answer is no panic", got)
	}
	b.pts[1].X = 0.25
	if code, v := post(t, ts, "/v1/knn", `{"point":{"X":0.5,"Y":0.5},"k":2}`); code != http.StatusOK || v["count"] != 2.0 {
		t.Fatalf("finite answer after the 500s: status %d, %v", code, v)
	}
}

// TestBatchStopsAtNonFiniteAnswer: a batch fails with a 500 at the first
// answer JSON cannot carry; the ops before it have run and none after it
// runs, so a client that retries the 500 does not insert twice.
func TestBatchStopsAtNonFiniteAnswer(t *testing.T) {
	b := &answerBackend{pts: []wazi.Point{{X: 0.5, Y: 0.5}, {X: math.Inf(1), Y: 0.5}}}
	srv := New(b, Config{})
	const knn, insert = `{"op":"knn","point":{"X":0.5,"Y":0.5},"k":2}`, `{"op":"insert","point":{"X":0.5,"Y":0.5}}`
	for _, tt := range []struct {
		ops     string
		inserts int
	}{
		{knn + "," + insert, 0},
		{insert + "," + knn + "," + insert, 1},
	} {
		b.inserts = 0
		rec := serveOnce(srv, "/v1/batch", `{"ops":[`+tt.ops+`]}`)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "non-finite") {
			t.Fatalf("batch [%s]: status %d, body %s; want the non-finite 500", tt.ops, rec.Code, rec.Body)
		}
		if b.inserts != tt.inserts {
			t.Errorf("batch [%s]: %d inserts applied, want %d", tt.ops, b.inserts, tt.inserts)
		}
	}
}

// TestAnswerFraming: an answer far over net/http's 2 KiB chunking buffer goes
// out with a Content-Length equal to its body, not chunked.
func TestAnswerFraming(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/range", "application/json", strings.NewReader(wholeUnitRect))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("range: status %d, %v", resp.StatusCode, err)
	}
	if len(body) <= 2048 {
		t.Fatalf("answer is %d bytes, want one over 2 KiB", len(body))
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) || resp.ContentLength != int64(len(body)) {
		t.Errorf("Content-Length %q (parsed %d), body %d bytes", cl, resp.ContentLength, len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("Transfer-Encoding %v on an answer with a length", resp.TransferEncoding)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
}

// finiteFloats reads raw as little-endian float64 bit patterns; a ±Inf or
// NaN pattern loses its top exponent bit, which makes it finite.
func finiteFloats(raw []byte) []float64 {
	fs := make([]float64, 0, len(raw)/8)
	for ; len(raw) >= 8; raw = raw[8:] {
		bits := binary.LittleEndian.Uint64(raw)
		if f := math.Float64frombits(bits); math.IsInf(f, 0) || math.IsNaN(f) {
			bits &^= 1 << 62
		}
		fs = append(fs, math.Float64frombits(bits))
	}
	return fs
}

// FuzzWireEncode holds the appended answers to encoding/json: for any finite
// coordinates, count and flag, the range, count, point, insert and batch
// answers equal json.Marshal of their reference shapes plus a newline. The
// one intended difference is an empty points list, always [] here, which
// encoding/json writes as null for a nil slice.
func FuzzWireEncode(f *testing.F) {
	seed := func(n int, found bool, fs ...float64) {
		raw := make([]byte, 0, 8*len(fs))
		for _, v := range fs {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(n, found, raw)
	}
	seed(0, false)
	seed(3, true, 0, math.Copysign(0, -1), 5e-324, -2.2250738585072014e-308)
	seed(-1, false, 1e-7, 1e-6, 9.999999999999999e-7, 1e21, 999999999999999900000)
	seed(1<<40, true, math.MaxFloat64, -math.MaxFloat64, 0.1, -73.98, 40.72, 123456789, 1e-300)
	seed(math.MaxInt64, false, math.Inf(1), math.NaN())

	b := &answerBackend{}
	srv := New(b, Config{})
	f.Fuzz(func(t *testing.T, n int, found bool, raw []byte) {
		fs := finiteFloats(raw)
		b.pts, b.n, b.found = b.pts[:0], n, found
		for i := 0; i+1 < len(fs); i += 2 {
			b.pts = append(b.pts, wazi.Point{X: fs[i], Y: fs[i+1]})
		}
		points := rangeResp{Count: len(b.pts), Points: append([]wazi.Point{}, b.pts...)}
		const knn = `{"op":"knn","point":{"X":0.5,"Y":0.5},"k":1}`
		for _, tt := range []struct {
			path, body string
			want       any
		}{
			{"/v1/range", wholeUnitRect, points},
			{"/v1/count", wholeUnitRect, countResp{Count: n}},
			{"/v1/point", `{"point":{"X":0.5,"Y":0.5}}`, foundResp{Found: found}},
			{"/v1/insert", `{"point":{"X":0.5,"Y":0.5}}`, okResp{OK: true}},
			{"/v1/batch", `{"ops":[` + knn + `,{"op":"delete","point":{"X":0.5,"Y":0.5}}]}`,
				batchResp{Results: []any{points, foundResp{Found: found}}}},
		} {
			want, err := json.Marshal(tt.want)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			rec := serveOnce(srv, tt.path, tt.body)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s: status %d\n got %s\nwant %s", tt.path, rec.Code, rec.Body, want)
			}
		}
	})
}
