// Package obs is the live observability plane: a Prometheus-text-format
// exporter over stats.Registry snapshots, a multi-window burn-rate SLO
// monitor, a structured control-plane event journal, and a small HTTP
// page server (/metrics, /healthz, /statusz, /journalz) that memnoded,
// ddcrun, and dilosbench mount.
//
// Everything here follows the repo's determinism contract: rendering a
// snapshot, evaluating an objective, or serialising the journal is a pure
// function of virtual time and observed values, so same-seed runs produce
// byte-identical exposition pages and journal files. Like stats and
// telemetry, the Monitor and Journal are unsynchronised — in the
// simulator every caller runs inside the single-threaded engine; the
// wall-clock daemons (memnoded) serialise access themselves.
package obs

import (
	"sort"
	"strconv"
	"strings"

	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

// row is one exposition sample: a family, an optional label set (already
// rendered, sorted), and an integer value. All registry metrics are
// integral (counts, frames, virtual nanoseconds), which keeps the page
// byte-deterministic without any float-formatting policy.
type row struct {
	family string
	labels string // rendered `key="value",...` without braces, "" for none
	seq    int    // intra-family ordering (quantile lines before _sum/_count)
	value  int64
}

// famBlock groups the rows of one family under a TYPE line.
type famBlock struct {
	family string
	typ    string // counter | gauge | summary
	rows   []row
}

// sanitize maps a registry metric name onto a Prometheus family name:
// every character outside [a-zA-Z0-9_:] becomes '_'.
func sanitize(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// splitName lifts structured name segments into labels:
//
//	link.node<K>.<rest>  -> link_<rest> {node="K"}
//	memnode.node<K>.<..> -> memnode_<..>{node="K"}
//	<..>.shard<K>.<rest> -> <..>_<rest> {shard="K"}
//
// so per-node and per-shard registry families aggregate the
// way a Prometheus user expects, while the rest of the name maps 1:1.
func splitName(name string) (family, labels string) {
	var parts []string
	for _, pfx := range []string{"link.node", "memnode.node"} {
		if rest, ok := strings.CutPrefix(name, pfx); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 {
				if _, err := strconv.Atoi(rest[:i]); err == nil {
					parts = append(parts, `node="`+rest[:i]+`"`)
					name = pfx[:strings.IndexByte(pfx, '.')] + "." + rest[i+1:]
				}
			}
		}
	}
	// A ".shard<K>." or trailing ".shard<K>" segment becomes a label.
	if i := strings.Index(name, ".shard"); i >= 0 {
		rest := name[i+len(".shard"):]
		j := strings.IndexByte(rest, '.')
		num := rest
		if j >= 0 {
			num = rest[:j]
		}
		if _, err := strconv.Atoi(num); err == nil && num != "" {
			parts = append(parts, `shard="`+num+`"`)
			if j >= 0 {
				name = name[:i] + "." + rest[j+1:]
			} else {
				name = name[:i]
			}
		}
	}
	sort.Strings(parts)
	return sanitize(name), strings.Join(parts, ",")
}

// appendRow renders one sample line.
func appendRow(dst []byte, r row) []byte {
	dst = append(dst, r.family...)
	if r.labels != "" {
		dst = append(dst, '{')
		dst = append(dst, r.labels...)
		dst = append(dst, '}')
	}
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, r.value, 10)
	return append(dst, '\n')
}

// appendBlocks sorts rows into family blocks and renders them with one
// TYPE line per family. Ordering is total: family, then labels, then seq.
func appendBlocks(dst []byte, typ string, rows []row) []byte {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].family != rows[j].family {
			return rows[i].family < rows[j].family
		}
		if rows[i].labels != rows[j].labels {
			return rows[i].labels < rows[j].labels
		}
		return rows[i].seq < rows[j].seq
	})
	last := ""
	for _, r := range rows {
		if r.family != last {
			dst = append(dst, "# TYPE "...)
			dst = append(dst, r.family...)
			dst = append(dst, ' ')
			dst = append(dst, typ...)
			dst = append(dst, '\n')
			last = r.family
		}
		dst = appendRow(dst, r)
	}
	return dst
}

// quantileRows are the summary quantiles rendered per histogram, in
// emission order.
var quantileRows = []struct {
	q   string
	get func(stats.HistogramSnap) int64
}{
	{"0.5", func(h stats.HistogramSnap) int64 { return h.P50Ns }},
	{"0.99", func(h stats.HistogramSnap) int64 { return h.P99Ns }},
	{"0.999", func(h stats.HistogramSnap) int64 { return h.P999Ns }},
}

// histEntry is one histogram resolved to its family and label set.
type histEntry struct {
	family string
	labels string
	snap   stats.HistogramSnap
}

// AppendMetrics renders snap (and, when rec is non-nil, the flight
// recorder's per-track occupancy) as a Prometheus text exposition page
// appended to dst. The output is a pure function of its inputs: families
// and label sets are emitted in sorted order and every value is integral,
// so same-seed runs produce byte-identical pages.
//
// Counters map to `<family>_total`, gauges to `<family>` (last value),
// and histograms to `<family>_ns` summaries (p50/p99/p999 quantiles plus
// _sum/_count).
func AppendMetrics(dst []byte, snap stats.Snapshot, rec *telemetry.Recorder) []byte {
	var counters, gauges []row
	var hists []histEntry
	for _, c := range snap.Counters {
		fam, lb := splitName(c.Name)
		counters = append(counters, row{family: fam + "_total", labels: lb, value: c.N})
	}
	for _, g := range snap.Gauges {
		fam, lb := splitName(g.Name)
		gauges = append(gauges, row{family: fam, labels: lb, value: g.Last})
	}
	for _, h := range snap.Histograms {
		fam, lb := splitName(h.Name)
		hists = append(hists, histEntry{family: fam + "_ns", labels: lb, snap: h})
	}
	if rec != nil {
		for id, name := range rec.Tracks() {
			lb := `track="` + escapeLabel(name) + `"`
			gauges = append(gauges, row{family: "dilos_telemetry_track_spans", labels: lb,
				value: int64(len(rec.Spans(id)))})
			counters = append(counters,
				row{family: "dilos_telemetry_track_dropped_total", labels: lb, value: rec.Dropped(id)},
				row{family: "dilos_telemetry_track_sampled_out_total", labels: lb, value: rec.SampledOut(id)})
		}
	}
	dst = appendBlocks(dst, "counter", counters)
	dst = appendBlocks(dst, "gauge", gauges)
	// A summary's _sum and _count lines belong to the summary family
	// (they get no TYPE lines of their own), so histograms render as
	// whole blocks rather than through appendBlocks.
	sort.Slice(hists, func(i, j int) bool {
		if hists[i].family != hists[j].family {
			return hists[i].family < hists[j].family
		}
		return hists[i].labels < hists[j].labels
	})
	last := ""
	for _, h := range hists {
		if h.family != last {
			dst = append(dst, "# TYPE "...)
			dst = append(dst, h.family...)
			dst = append(dst, " summary\n"...)
			last = h.family
		}
		for _, q := range quantileRows {
			ql := `quantile="` + q.q + `"`
			if h.labels != "" {
				ql = h.labels + "," + ql
			}
			dst = appendRow(dst, row{family: h.family, labels: ql, value: q.get(h.snap)})
		}
		dst = appendRow(dst, row{family: h.family + "_sum", labels: h.labels,
			value: h.snap.MeanNs * int64(h.snap.Count)})
		dst = appendRow(dst, row{family: h.family + "_count", labels: h.labels,
			value: int64(h.snap.Count)})
	}
	return dst
}
