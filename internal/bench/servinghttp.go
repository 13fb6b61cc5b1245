package bench

import (
	"fmt"
	"net/http/httptest"
	"time"

	wazi "github.com/wazi-index/wazi"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/server"
	"github.com/wazi-index/wazi/internal/workload"
)

// servingHTTPDuration is the wall budget of each load pass. Short on
// purpose: the experiment measures the per-request vs batch shape, which
// stabilizes within a few hundred milliseconds, and every experiment must
// stay runnable in the CI smoke matrix.
const servingHTTPDuration = 400 * time.Millisecond

// servingHTTPClients matches the acceptance shape of the serving subsystem:
// batch replay must beat per-request replay at high client concurrency.
const servingHTTPClients = 64

// ServingHTTP measures the full network serving path end to end: a Sharded
// index behind internal/server on a real TCP listener, driven by the shared
// load generator with a zipfian read-mostly stream, once op-per-request and
// once folded into /v1/batch requests. This is the in-process twin of the
// cmd/waziserve + cmd/waziload pairing — same endpoints, same wire ops,
// same table shape — so over-the-wire serving latency lands in the same
// BENCH_*.json trajectory as every in-process number.
func ServingHTTP(cfg Config) []Table {
	cfg.fill()
	r := cfg.Regions[0]
	data := dataset.Generate(r, cfg.Scale, cfg.Seed)
	train := workload.Skewed(r, cfg.Queries, MidSelectivity, cfg.Seed+61)
	idx, err := wazi.NewSharded(data, train,
		wazi.WithIndexOptions(wazi.WithLeafSize(cfg.LeafSize), wazi.WithSeed(cfg.Seed)),
		wazi.WithoutAutoRebuild())
	if err != nil {
		panic(err)
	}
	defer idx.Close()

	srv := server.New(server.Sharded(idx), server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	qs := workload.Zipfian(r, cfg.Queries, MidSelectivity, cfg.Seed+62)
	ins := workload.InsertBatch(cfg.Queries/4+1, cfg.Seed+63)
	ops := workload.ToWire(workload.MixedOps(qs, ins, 0.1, cfg.Seed+64))

	var results []server.LoadResult
	for _, batch := range []int{1, 32} {
		res, err := server.RunLoad(ts.URL, ops, server.LoadOptions{
			Clients:  servingHTTPClients,
			Duration: servingHTTPDuration,
			Batch:    batch,
		})
		if err != nil {
			panic(fmt.Sprintf("serving-http load failed: %v", err))
		}
		results = append(results, res)
	}
	return []Table{server.LoadTable("serving-http", "zipfian+10%w", servingHTTPClients, results)}
}
