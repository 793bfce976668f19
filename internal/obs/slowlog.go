package obs

import (
	"context"
	"log/slog"
	"time"
)

// SlowLog emits one structured record per request at or over its
// threshold, carrying the trace ID, the per-span stage breakdown and the
// SQL — the artifact a human reads first when a query is slow. A zero
// threshold disables it.
type SlowLog struct {
	logger    *slog.Logger
	threshold time.Duration
}

// NewSlowLog builds a slow-query log writing to logger (nil uses
// slog.Default). threshold <= 0 disables logging.
func NewSlowLog(logger *slog.Logger, threshold time.Duration) *SlowLog {
	if logger == nil {
		logger = slog.Default()
	}
	return &SlowLog{logger: logger, threshold: threshold}
}

// Record logs rec if it crossed the threshold. sql may be empty for
// non-query routes. Safe on nil receiver and nil record.
func (l *SlowLog) Record(rec *TraceRecord, sql string) {
	if l == nil || l.threshold <= 0 || rec == nil || !rec.Slow(l.threshold) {
		return
	}
	if !l.logger.Enabled(context.Background(), slog.LevelWarn) {
		return // don't build the stage breakdown for a disabled sink
	}
	attrs := []any{
		slog.String("trace_id", rec.ID),
		slog.String("request_id", rec.RequestID),
		slog.String("route", rec.Name),
		slog.Int("status", rec.Status),
		slog.Int64("duration_us", rec.DurationMicros),
	}
	if sql != "" {
		attrs = append(attrs, slog.String("sql", sql))
	}
	// Stage breakdown: one group attr per span, duration plus error flag.
	stages := make([]any, 0, len(rec.Spans))
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		if sp.Err != "" {
			stages = append(stages, slog.Group(sp.Name,
				slog.Int64("us", sp.DurationMicros), slog.String("error", sp.Err)))
		} else {
			stages = append(stages, slog.Group(sp.Name, slog.Int64("us", sp.DurationMicros)))
		}
	}
	attrs = append(attrs, slog.Group("stages", stages...))
	l.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow query", toSlogAttrs(attrs)...)
}

func toSlogAttrs(attrs []any) []slog.Attr {
	out := make([]slog.Attr, 0, len(attrs))
	for _, a := range attrs {
		if sa, ok := a.(slog.Attr); ok {
			out = append(out, sa)
		}
	}
	return out
}
