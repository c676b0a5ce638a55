package metrics

import (
	"fmt"
	"io"
	"strconv"
)

// Prom writes the Prometheus text exposition format (version 0.0.4):
// each metric's HELP and TYPE lines, then its samples, in call order.
// The first write error sticks: later calls write nothing, and Err
// returns it.
type Prom struct {
	w   io.Writer
	err error
}

// NewProm returns a writer over w.
func NewProm(w io.Writer) *Prom { return &Prom{w: w} }

// Err returns the first write error.
func (p *Prom) Err() error { return p.err }

func (p *Prom) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// Head writes a metric's HELP and TYPE lines.
func (p *Prom) Head(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line; labels is empty or a rendered {...}
// label set.
func (p *Prom) Sample(name, labels, value string) {
	p.printf("%s%s %s\n", name, labels, value)
}

// Counter writes a counter with its one sample.
func (p *Prom) Counter(name, help string, v int64) {
	p.Head(name, help, "counter")
	p.Sample(name, "", strconv.FormatInt(v, 10))
}

// Gauge writes an integer gauge with its one sample.
func (p *Prom) Gauge(name, help string, v int64) {
	p.Head(name, help, "gauge")
	p.Sample(name, "", strconv.FormatInt(v, 10))
}

// GaugeFloat writes a float gauge with its one sample.
func (p *Prom) GaugeFloat(name, help string, v float64) {
	p.Head(name, help, "gauge")
	p.Sample(name, "", promFloat(v))
}

// Summary writes a summary's p50, p90 and p99 quantiles.
func (p *Prom) Summary(name, help string, ps PercentileSummary) {
	p.Head(name, help, "summary")
	p.Sample(name, `{quantile="0.5"}`, promFloat(ps.P50))
	p.Sample(name, `{quantile="0.9"}`, promFloat(ps.P90))
	p.Sample(name, `{quantile="0.99"}`, promFloat(ps.P99))
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
