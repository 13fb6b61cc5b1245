package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/server"
)

// target is the entry point a workload drives: a library handle called
// directly, or the HTTP server behind a loopback connection. Read methods
// return the size of the answer; answer returns the last range or kNN answer
// itself, for the verification pass.
type target interface {
	rangeQuery(r wazi.Rect) int
	pointQuery(p wazi.Point) bool
	knn(q wazi.Point, k int) int
	insert(p wazi.Point)
	remove(p wazi.Point) bool
	answer() []wazi.Point
	// failures counts calls that did not complete (transport error, non-200).
	failures() int
}

// library is the method set wazi.Index and wazi.Sharded share.
type library interface {
	RangeQueryAppend(dst []wazi.Point, r wazi.Rect) []wazi.Point
	PointQuery(p wazi.Point) bool
	KNNAppend(dst []wazi.Point, q wazi.Point, k int) []wazi.Point
	Insert(p wazi.Point)
	Delete(p wazi.Point) bool
}

// direct calls a library handle, cycling one result buffer.
type direct struct {
	lib library
	buf []wazi.Point
}

func (d *direct) rangeQuery(r wazi.Rect) int {
	d.buf = d.lib.RangeQueryAppend(d.buf[:0], r)
	return len(d.buf)
}
func (d *direct) pointQuery(p wazi.Point) bool { return d.lib.PointQuery(p) }
func (d *direct) knn(q wazi.Point, k int) int {
	d.buf = d.lib.KNNAppend(d.buf[:0], q, k)
	return len(d.buf)
}
func (d *direct) insert(p wazi.Point)      { d.lib.Insert(p) }
func (d *direct) remove(p wazi.Point) bool { return d.lib.Delete(p) }
func (d *direct) answer() []wazi.Point     { return d.buf }
func (d *direct) failures() int            { return 0 }

// httpClient is the benchmark's own closed-loop client: one keep-alive
// connection, one request in flight, written and read on the calling
// goroutine. (net/http's client hands every request to a writer goroutine
// and every response back from a reader goroutine; those extra hand-offs cost
// as much as the server's own work, 33 µs against 23 µs for a point lookup,
// and which thread the scheduler woke for them decided whether an insert
// read 28 or 42 µs.) Timed passes read the body and parse only its leading
// "count"/"found" field; answer decodes the points.
type httpClient struct {
	addr   string
	conn   net.Conn
	br     *bufio.Reader
	out    []byte       // request scratch: head and body
	req    []byte       // request body scratch
	body   bytes.Buffer // last response body
	pts    []wazi.Point
	failed int
	bytes  int64 // response bytes read
}

func newHTTPClient(addr string) *httpClient { return &httpClient{addr: addr} }

func (c *httpClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func appendPoint(b []byte, p wazi.Point) []byte {
	b = append(b, `{"X":`...)
	b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
	b = append(b, `,"Y":`...)
	b = strconv.AppendFloat(b, p.Y, 'g', -1, 64)
	return append(b, '}')
}

func rectBody(b []byte, r wazi.Rect) []byte {
	b = append(b[:0], `{"rect":{"MinX":`...)
	b = strconv.AppendFloat(b, r.MinX, 'g', -1, 64)
	b = append(b, `,"MinY":`...)
	b = strconv.AppendFloat(b, r.MinY, 'g', -1, 64)
	b = append(b, `,"MaxX":`...)
	b = strconv.AppendFloat(b, r.MaxX, 'g', -1, 64)
	b = append(b, `,"MaxY":`...)
	b = strconv.AppendFloat(b, r.MaxY, 'g', -1, 64)
	return append(b, "}}"...)
}

func pointBody(b []byte, p wazi.Point) []byte {
	b = append(b[:0], `{"point":`...)
	return append(appendPoint(b, p), '}')
}

func knnBody(b []byte, p wazi.Point, k int) []byte {
	b = append(b[:0], `{"point":`...)
	b = append(appendPoint(b, p), `,"k":`...)
	return append(strconv.AppendInt(b, int64(k), 10), '}')
}

// post sends c.req to route and leaves the response body in c.body. It
// reports whether the server answered 200. A failed exchange drops the
// connection; the next request dials again.
func (c *httpClient) post(route string) bool {
	c.body.Reset()
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			c.failed++
			return false
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	c.out = append(c.out[:0], "POST "...)
	c.out = append(c.out, route...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: wazibench\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.out = strconv.AppendInt(c.out, int64(len(c.req)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, c.req...)
	var resp *http.Response
	_, err := c.conn.Write(c.out)
	if err == nil {
		resp, err = http.ReadResponse(c.br, nil)
	}
	if err != nil {
		c.failed++
		c.close()
		return false
	}
	n, err := io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	c.bytes += n
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		c.failed++
		return false
	}
	return true
}

// leadingInt parses the number after the first ':' of a JSON object, which
// for range and kNN responses is the "count" field.
func leadingInt(b []byte) int {
	i := bytes.IndexByte(b, ':') + 1
	n := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + int(b[i]-'0')
	}
	return n
}

func (c *httpClient) rangeQuery(r wazi.Rect) int {
	c.req = rectBody(c.req, r)
	if !c.post("/v1/range") {
		return -1
	}
	return leadingInt(c.body.Bytes())
}

func (c *httpClient) pointQuery(p wazi.Point) bool {
	c.req = pointBody(c.req, p)
	return c.post("/v1/point") && bytes.HasPrefix(c.body.Bytes(), []byte(`{"found":true`))
}

func (c *httpClient) knn(q wazi.Point, k int) int {
	c.req = knnBody(c.req, q, k)
	if !c.post("/v1/knn") {
		return -1
	}
	return leadingInt(c.body.Bytes())
}

func (c *httpClient) insert(p wazi.Point) {
	c.req = pointBody(c.req, p)
	c.post("/v1/insert")
}

func (c *httpClient) remove(p wazi.Point) bool {
	c.req = pointBody(c.req, p)
	return c.post("/v1/delete") && bytes.HasPrefix(c.body.Bytes(), []byte(`{"found":true`))
}

func (c *httpClient) answer() []wazi.Point {
	var resp struct{ Points []wazi.Point }
	resp.Points = c.pts[:0]
	if err := json.Unmarshal(c.body.Bytes(), &resp); err != nil {
		c.failed++
		return nil
	}
	c.pts = resp.Points
	return c.pts
}

func (c *httpClient) failures() int { return c.failed }

// listener is a server.Server on a real loopback socket.
type listener struct {
	srv    *server.Server
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func listen(sh *wazi.Sharded) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("opening loopback listener: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &listener{srv: server.New(server.Sharded(sh), server.Config{}),
		addr: ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	// The socket already listens; a connection made before Serve accepts
	// simply waits in the backlog.
	go func() { l.done <- l.srv.Serve(ctx, ln) }()
	return l, nil
}

// close drains the server and waits for its goroutines to exit.
func (l *listener) close() error {
	l.cancel()
	return <-l.done
}
