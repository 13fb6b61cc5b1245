package bench

import (
	"fmt"
	"time"

	"github.com/wazi-index/wazi/internal/core"
	"github.com/wazi-index/wazi/internal/dataset"
	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/index"
	"github.com/wazi-index/wazi/internal/workload"
)

// Experiment couples an experiment id with its runner and a short label
// for listings. IDs named tab*/fig* match the paper's artifact numbers;
// the rest are this repository's serving-layer additions.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) []Table
}

// Experiments returns every experiment in the paper's order, followed by
// the serving-layer experiments.
func Experiments() []Experiment {
	return []Experiment{
		{"tab1", "static index property matrix", Tab1Properties},
		{"tab2", "parameter grid (paper vs this run)", Tab2Parameters},
		{"fig4", "range latency, all eleven indexes", Fig4AllIndexes},
		{"fig6", "range latency by selectivity, main six", Fig6RangeBySelectivity},
		{"fig7", "% improvement over Base", Fig7ImprovementOverBase},
		{"fig8", "range latency by dataset size", Fig8RangeByDatasetSize},
		{"fig9", "projection vs scan split", Fig9ProjectionScan},
		{"fig10", "point-query latency by dataset size", Fig10PointQuery},
		{"tab3", "build time by dataset size", Tab3BuildTime},
		{"tab4", "cost redemption vs Base", Tab4CostRedemption},
		{"tab5", "index sizes", Tab5IndexSize},
		{"fig11", "insert latency and post-insert range latency", Fig11Inserts},
		{"fig12", "range latency under workload drift", Fig12WorkloadDrift},
		{"fig13", "skipping/partitioning ablation", Fig13Ablation},
		{"serving-http", "HTTP serving: per-request vs batched replay over the wire", ServingHTTP},
		{"repartition", "online repartitioning vs static plan under hotspot-shift", RepartitionExperiment},
	}
}

// ExperimentByID returns the experiment with the given id.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Tab1Properties reproduces Table 1 (static index property matrix).
func Tab1Properties(Config) []Table {
	yes, no := "yes", "-"
	return []Table{{
		ID:     "tab1",
		Title:  "Key properties of indexes in the experiments (Table 1)",
		Header: []string{"Index", "SFC-based", "Query-Aware", "Learned"},
		Rows: [][]string{
			{"STR", no, no, no},
			{"CUR", no, yes, yes},
			{"Flood", no, yes, yes},
			{"QUASII", no, yes, no},
			{"Base", yes, no, no},
			{"WaZI", yes, yes, yes},
		},
	}}
}

// Tab2Parameters reproduces Table 2 (parameter grid), reporting both the
// paper's values and this run's scaled values.
func Tab2Parameters(cfg Config) []Table {
	cfg.fill()
	sizes := ""
	for i, s := range cfg.SizeLadder() {
		if i > 0 {
			sizes += ", "
		}
		sizes += fmt.Sprintf("%d", s)
	}
	return []Table{{
		ID:     "tab2",
		Title:  "Parameter setting (Table 2; this run's scaled values)",
		Header: []string{"Parameter", "Paper", "This run"},
		Rows: [][]string{
			{"Dataset size", "4M..64M (default 32M)", sizes + fmt.Sprintf(" (default %d)", cfg.Scale)},
			{"Query selectivity (%)", "0.0016, 0.0064, 0.0256, 0.1024", "same"},
			{"Leaf-node size", "256", fmt.Sprintf("%d", cfg.LeafSize)},
			{"Range-query workload size", "20,000", fmt.Sprintf("%d", cfg.Queries)},
		},
	}}
}

// Fig4AllIndexes reproduces Figure 4: average range-query latency of all
// eleven indexes at the mid selectivity, averaged over all regions.
func Fig4AllIndexes(cfg Config) []Table {
	cfg.fill()
	totals := map[string]time.Duration{}
	for _, r := range cfg.Regions {
		w := MakeWorkloads(r, cfg.Scale, cfg)
		qs := w.BySelectivity[MidSelectivity]
		half := len(qs) / 2
		for _, name := range AllIndexes {
			br := BuildIndex(name, w.Data, qs[:half], cfg)
			totals[name] += MeasureRange(br.Index, qs[half:])
		}
	}
	t := Table{
		ID:     "fig4",
		Title:  "Average range query latency, all indexes (Figure 4)",
		Header: []string{"Index", "Range latency (ns/query)"},
		Notes: []string{
			"expected shape: WaZI lowest; rank-space SFC indexes (Zpgm, HRR, QUILTS, RSMI) and QD-Gr clearly worst",
		},
	}
	for _, name := range AllIndexes {
		t.Rows = append(t.Rows, []string{name, ns(totals[name] / time.Duration(len(cfg.Regions)))})
	}
	return []Table{t}
}

// Fig6RangeBySelectivity reproduces Figure 6: range latency for the six
// main indexes over 4 regions x 4 selectivities, plus a deterministic
// companion table of points scanned per query (the paper's retrieval
// cost), which is immune to machine noise. Indexes are trained on a
// held-out half of each workload and measured on the other half.
func Fig6RangeBySelectivity(cfg Config) []Table {
	cfg.fill()
	var tables []Table
	for _, sel := range sortedSelectivities() {
		t := Table{
			ID:     "fig6",
			Title:  fmt.Sprintf("Range query latency, selectivity %s (Figure 6)", selLabel(sel)),
			Header: append([]string{"Dataset"}, MainIndexes...),
		}
		c := Table{
			ID:     "fig6",
			Title:  fmt.Sprintf("Points scanned per query, selectivity %s (Figure 6 companion)", selLabel(sel)),
			Header: append([]string{"Dataset"}, MainIndexes...),
		}
		for _, r := range cfg.Regions {
			w := MakeWorkloads(r, cfg.Scale, cfg)
			qs := w.BySelectivity[sel]
			half := len(qs) / 2
			row := []string{r.String()}
			crow := []string{r.String()}
			for _, name := range MainIndexes {
				br := BuildIndex(name, w.Data, qs[:half], cfg)
				before := *br.Index.Stats()
				row = append(row, ns(MeasureRange(br.Index, qs[half:])))
				d := br.Index.Stats().Diff(before)
				crow = append(crow, fmt.Sprintf("%d", d.PointsScanned/d.RangeQueries))
			}
			t.Rows = append(t.Rows, row)
			c.Rows = append(c.Rows, crow)
		}
		t.Notes = []string{"ns/query (best of 5 passes); expected shape: WaZI lowest or tied-lowest, QUASII closest on Japan"}
		c.Notes = []string{"retrieval cost per query; deterministic"}
		tables = append(tables, t, c)
	}
	return tables
}

// Fig7ImprovementOverBase reproduces Figure 7: percentage improvement over
// Base per dataset (averaged over selectivities) and per selectivity
// (averaged over datasets).
func Fig7ImprovementOverBase(cfg Config) []Table {
	cfg.fill()
	others := []string{"QUASII", "CUR", "STR", "Flood", "WaZI"}
	// latency[region][sel][index]
	type key struct {
		r   dataset.Region
		sel float64
	}
	lat := map[key]map[string]time.Duration{}
	for _, r := range cfg.Regions {
		w := MakeWorkloads(r, cfg.Scale, cfg)
		for _, sel := range sortedSelectivities() {
			qs := w.BySelectivity[sel]
			half := len(qs) / 2
			m := map[string]time.Duration{}
			for _, name := range MainIndexes {
				br := BuildIndex(name, w.Data, qs[:half], cfg)
				m[name] = MeasureRange(br.Index, qs[half:])
			}
			lat[key{r, sel}] = m
		}
	}
	imp := func(base, x time.Duration) float64 {
		return 100 * (float64(base) - float64(x)) / float64(base)
	}
	byRegion := Table{
		ID:     "fig7",
		Title:  "% improvement over Base by data distribution (Figure 7 top)",
		Header: append([]string{"Dataset"}, others...),
	}
	for _, r := range cfg.Regions {
		row := []string{r.String()}
		for _, name := range others {
			var sum float64
			for _, sel := range sortedSelectivities() {
				m := lat[key{r, sel}]
				sum += imp(m["Base"], m[name])
			}
			row = append(row, pct(sum/float64(len(sortedSelectivities()))))
		}
		byRegion.Rows = append(byRegion.Rows, row)
	}
	bySel := Table{
		ID:     "fig7",
		Title:  "% improvement over Base by query selectivity (Figure 7 bottom)",
		Header: append([]string{"Selectivity"}, others...),
		Notes: []string{
			"expected shape: WaZI the only consistently positive column; its improvement shrinks as selectivity grows",
		},
	}
	for _, sel := range sortedSelectivities() {
		row := []string{selLabel(sel)}
		for _, name := range others {
			var sum float64
			for _, r := range cfg.Regions {
				m := lat[key{r, sel}]
				sum += imp(m["Base"], m[name])
			}
			row = append(row, pct(sum/float64(len(cfg.Regions))))
		}
		bySel.Rows = append(bySel.Rows, row)
	}
	return []Table{byRegion, bySel}
}

// Fig8RangeByDatasetSize reproduces Figure 8: range latency vs dataset size
// at the mid selectivity, averaged over regions.
func Fig8RangeByDatasetSize(cfg Config) []Table {
	cfg.fill()
	t := Table{
		ID:     "fig8",
		Title:  "Range query latency by dataset size, selectivity 0.0256% (Figure 8)",
		Header: append([]string{"Size"}, MainIndexes...),
		Notes:  []string{"ns/query; expected shape: near-linear growth, WaZI lowest at every size"},
	}
	for _, size := range cfg.SizeLadder() {
		row := []string{fmt.Sprintf("%d", size)}
		totals := map[string]time.Duration{}
		for _, r := range cfg.Regions {
			w := MakeWorkloads(r, size, cfg)
			qs := w.BySelectivity[MidSelectivity]
			half := len(qs) / 2
			for _, name := range MainIndexes {
				br := BuildIndex(name, w.Data, qs[:half], cfg)
				totals[name] += MeasureRange(br.Index, qs[half:])
			}
		}
		for _, name := range MainIndexes {
			row = append(row, ns(totals[name]/time.Duration(len(cfg.Regions))))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// Fig9ProjectionScan reproduces Figure 9: the projection/scan split of
// range-query time at the default size and mid selectivity.
func Fig9ProjectionScan(cfg Config) []Table {
	cfg.fill()
	projT := map[string]time.Duration{}
	scanT := map[string]time.Duration{}
	for _, r := range cfg.Regions {
		w := MakeWorkloads(r, cfg.Scale, cfg)
		qs := w.BySelectivity[MidSelectivity]
		half := len(qs) / 2
		for _, name := range MainIndexes {
			br := BuildIndex(name, w.Data, qs[:half], cfg)
			ph, ok := br.Index.(Phased)
			if !ok {
				continue
			}
			p, s := MeasurePhases(ph, qs[half:])
			projT[name] += p
			scanT[name] += s
		}
	}
	t := Table{
		ID:     "fig9",
		Title:  "Projection vs scan split of range query latency (Figure 9)",
		Header: []string{"Index", "Projection (ns)", "Scan (ns)"},
		Notes: []string{
			"expected shape: Flood fastest projection; WaZI projection several times faster than Base (skipping); scan dominates; WaZI best scan",
		},
	}
	n := time.Duration(len(cfg.Regions))
	for _, name := range MainIndexes {
		t.Rows = append(t.Rows, []string{name, ns(projT[name] / n), ns(scanT[name] / n)})
	}
	return []Table{t}
}

// Fig10PointQuery reproduces Figure 10: point-query latency vs dataset
// size, averaged over regions.
func Fig10PointQuery(cfg Config) []Table {
	cfg.fill()
	t := Table{
		ID:     "fig10",
		Title:  "Point query latency by dataset size (Figure 10)",
		Header: append([]string{"Size"}, MainIndexes...),
		Notes:  []string{"ns/query; expected shape: WaZI and Base fastest, Flood close, QUASII worst"},
	}
	for _, size := range cfg.SizeLadder() {
		row := []string{fmt.Sprintf("%d", size)}
		totals := map[string]time.Duration{}
		for _, r := range cfg.Regions {
			w := MakeWorkloads(r, size, cfg)
			qs := w.BySelectivity[MidSelectivity]
			for _, name := range MainIndexes {
				br := BuildIndex(name, w.Data, qs[:len(qs)/2], cfg)
				totals[name] += MeasurePoint(br.Index, w.Points)
			}
		}
		for _, name := range MainIndexes {
			row = append(row, ns(totals[name]/time.Duration(len(cfg.Regions))))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// Tab3BuildTime reproduces Table 3: build time by dataset size (seconds),
// averaged over regions.
func Tab3BuildTime(cfg Config) []Table {
	cfg.fill()
	order := []string{"Base", "CUR", "Flood", "QUASII", "STR", "WaZI"}
	t := Table{
		ID:     "tab3",
		Title:  "Build time in seconds by dataset size (Table 3)",
		Header: append([]string{"Size"}, order...),
		Notes:  []string{"expected shape: STR fastest, QUASII slowest; WaZI ~ CUR ~ 2.5-3x Base"},
	}
	for _, size := range cfg.SizeLadder() {
		row := []string{fmt.Sprintf("%d", size)}
		totals := map[string]time.Duration{}
		for _, r := range cfg.Regions {
			w := MakeWorkloads(r, size, cfg)
			qs := w.BySelectivity[MidSelectivity]
			for _, name := range order {
				totals[name] += BuildIndex(name, w.Data, qs[:len(qs)/2], cfg).Build
			}
		}
		for _, name := range order {
			row = append(row, fmt.Sprintf("%.3f", (totals[name]/time.Duration(len(cfg.Regions))).Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// Tab4CostRedemption reproduces Table 4: the number of queries after which
// an index's cumulative build+query time undercuts Base's.
func Tab4CostRedemption(cfg Config) []Table {
	cfg.fill()
	order := []string{"CUR", "Flood", "QUASII", "STR", "WaZI"}
	t := Table{
		ID:     "tab4",
		Title:  "Cost-redemption vs Base: queries to amortize the build-time difference (Table 4)",
		Header: append([]string{"Data Dist."}, order...),
		Notes: []string{
			"(+) pays off after the reported number of queries; (-) never does; 'always' dominates Base outright",
			"expected shape: Flood/STR redeem instantly (cheaper builds); WaZI redeems after a finite query count; QUASII never",
		},
	}
	for _, r := range cfg.Regions {
		w := MakeWorkloads(r, cfg.Scale, cfg)
		qs := w.BySelectivity[MidSelectivity]
		half := len(qs) / 2
		base := BuildIndex("Base", w.Data, qs[:half], cfg)
		baseQ := MeasureRange(base.Index, qs[half:])
		row := []string{r.String()}
		for _, name := range order {
			br := BuildIndex(name, w.Data, qs[:half], cfg)
			q := MeasureRange(br.Index, qs[half:])
			dBuild := br.Build - base.Build
			dQuery := baseQ - q
			switch {
			case dBuild <= 0 && dQuery >= 0:
				row = append(row, "always")
			case dBuild > 0 && dQuery <= 0:
				row = append(row, "(-) never")
			case dBuild <= 0 && dQuery < 0:
				// Cheaper build, slower queries: Base wins after this many.
				n := float64(-dBuild) / float64(-dQuery)
				row = append(row, fmt.Sprintf("(-) %s", humanCount(n)))
			default:
				n := float64(dBuild) / float64(dQuery)
				row = append(row, fmt.Sprintf("(+) %s", humanCount(n)))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

func humanCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// Tab5IndexSize reproduces Table 5: index sizes in MB by dataset size,
// averaged over regions.
func Tab5IndexSize(cfg Config) []Table {
	cfg.fill()
	order := []string{"Base", "CUR", "Flood", "QUASII", "STR", "WaZI"}
	t := Table{
		ID:     "tab5",
		Title:  "Index sizes in MB by dataset size (Table 5)",
		Header: append([]string{"Size"}, order...),
		Notes:  []string{"expected shape: WaZI ~ Base (workload-awareness is space-free); Flood/QUASII smaller; linear growth"},
	}
	for _, size := range cfg.SizeLadder() {
		row := []string{fmt.Sprintf("%d", size)}
		totals := map[string]int64{}
		for _, r := range cfg.Regions {
			w := MakeWorkloads(r, size, cfg)
			qs := w.BySelectivity[MidSelectivity]
			for _, name := range order {
				totals[name] += BuildIndex(name, w.Data, qs[:len(qs)/2], cfg).Index.Bytes()
			}
		}
		for _, name := range order {
			row = append(row, mb(totals[name]/int64(len(cfg.Regions))))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// Fig11Inserts reproduces Figure 11: insert latency and post-insert range
// latency for the updatable indexes (WaZI, CUR, Flood), inserting 25% of
// the dataset uniformly in five equal batches.
func Fig11Inserts(cfg Config) []Table {
	cfg.fill()
	order := []string{"WaZI", "CUR", "Flood"}
	insT := Table{
		ID:     "fig11",
		Title:  "Insert latency over insert batches (Figure 11 left)",
		Header: append([]string{"% inserted"}, order...),
		Notes:  []string{"ns/insert; expected shape: WaZI slowest (look-ahead recomputation)"},
	}
	rngT := Table{
		ID:     "fig11",
		Title:  "Range latency after inserts (Figure 11 right)",
		Header: append([]string{"% inserted"}, order...),
		Notes:  []string{"ns/query; expected shape: mild degradation with inserts"},
	}
	r := cfg.Regions[0]
	w := MakeWorkloads(r, cfg.Scale, cfg)
	qs := w.BySelectivity[MidSelectivity]
	half := len(qs) / 2
	idxs := map[string]index.Updatable{}
	for _, name := range order {
		idxs[name] = BuildIndex(name, w.Data, qs[:half], cfg).Index.(index.Updatable)
	}
	totalInserts := cfg.Scale / 4
	batch := totalInserts / 5
	inserts := workload.InsertBatch(totalInserts, cfg.Seed+11)
	for b := 0; b < 5; b++ {
		chunk := inserts[b*batch : (b+1)*batch]
		insRow := []string{fmt.Sprintf("%d%%", (b+1)*5)}
		rngRow := []string{fmt.Sprintf("%d%%", (b+1)*5)}
		for _, name := range order {
			idx := idxs[name]
			start := time.Now()
			for _, p := range chunk {
				idx.Insert(p)
			}
			insRow = append(insRow, ns(time.Since(start)/time.Duration(len(chunk))))
			rngRow = append(rngRow, ns(MeasureRange(idx, qs[half:])))
		}
		insT.Rows = append(insT.Rows, insRow)
		rngT.Rows = append(rngT.Rows, rngRow)
	}
	return []Table{insT, rngT}
}

// Fig12WorkloadDrift reproduces Figure 12: range latency of Base and WaZI
// as the workload drifts toward uniform (left) and toward another region's
// skew (right).
func Fig12WorkloadDrift(cfg Config) []Table {
	cfg.fill()
	r := cfg.Regions[0]
	// The skewed change drifts toward another region's hotspots, never the
	// training region's own: the last configured region, or with only one,
	// the first other region.
	other := cfg.Regions[len(cfg.Regions)-1]
	for _, o := range dataset.Regions() {
		if other == r {
			other = o
		}
	}
	w := MakeWorkloads(r, cfg.Scale, cfg)
	qs := w.BySelectivity[MidSelectivity]
	half := len(qs) / 2
	base := BuildIndex("Base", w.Data, qs[:half], cfg).Index
	waz := BuildIndex("WaZI", w.Data, qs[:half], cfg).Index
	uniformQ := workload.Uniform(len(qs)-half, MidSelectivity, cfg.Seed+13)
	skewQ := workload.Skewed(other, len(qs)-half, MidSelectivity, cfg.Seed+14)

	mk := func(title string, target []geom.Rect) Table {
		t := Table{
			ID:     "fig12",
			Title:  title,
			Header: []string{"% change", "Base", "WaZI"},
		}
		for _, chg := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
			mixed := workload.Mix(qs[half:], target, chg, cfg.Seed+15)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f%%", chg*100),
				ns(MeasureRange(base, mixed)),
				ns(MeasureRange(waz, mixed)),
			})
		}
		return t
	}
	left := mk("Range latency under uniform workload change (Figure 12 left)", uniformQ)
	left.Notes = []string{"expected shape: Base flat; WaZI degrades gracefully, stays better"}
	right := mk(fmt.Sprintf("Range latency under skewed workload change to %v (Figure 12 right)", other), skewQ)
	right.Notes = []string{"expected shape: WaZI degrades faster and crosses Base at high % change"}
	return []Table{left, right}
}

// Fig13Ablation reproduces Figure 13: the four §6.9 variants (Base,
// Base+SK, WaZI−SK, WaZI) measured on query time, excess points, bounding
// boxes checked, and pages scanned across the three ablation selectivities.
func Fig13Ablation(cfg Config) []Table {
	cfg.fill()
	variants := []string{"Base", "WaZI", "Base+SK", "WaZI-SK"}
	metrics := []string{"Query time (ns)", "Excess points", "bbs checked", "Pages scanned"}
	tables := make([]Table, len(metrics))
	for i, m := range metrics {
		tables[i] = Table{
			ID:     "fig13",
			Title:  fmt.Sprintf("Ablation: %s (Figure 13)", m),
			Header: append([]string{"Selectivity"}, variants...),
		}
	}
	r := cfg.Regions[0]
	w := MakeWorkloads(r, cfg.Scale, cfg)
	for _, sel := range workload.AblationSelectivities {
		qs := w.BySelectivity[sel]
		half := len(qs) / 2
		rows := make([][]string, len(metrics))
		for i := range rows {
			rows[i] = []string{selLabel(sel)}
		}
		for _, name := range variants {
			br := BuildIndex(name, w.Data, qs[:half], cfg)
			z := br.Index.(*core.ZIndex)
			before := *z.Stats()
			lat := MeasureRange(z, qs[half:])
			d := z.Stats().Diff(before)
			n := int64(len(qs) - half)
			rows[0] = append(rows[0], ns(lat))
			rows[1] = append(rows[1], fmt.Sprintf("%d", d.ExcessPoints()/n))
			rows[2] = append(rows[2], fmt.Sprintf("%d", d.BBChecked/n))
			rows[3] = append(rows[3], fmt.Sprintf("%d", d.PagesScanned/n))
		}
		for i := range metrics {
			tables[i].Rows = append(tables[i].Rows, rows[i])
		}
	}
	tables[2].Notes = []string{"expected shape: look-ahead variants check 50-100x fewer bounding boxes"}
	tables[1].Notes = []string{"expected shape: adaptive partitioning (WaZI, WaZI-SK) scans fewer excess points"}
	return tables
}
