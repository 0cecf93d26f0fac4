package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Logger is the service's structured logger: a leveled slog front-end
// with JSON or text output. A nil *Logger discards everything — the
// library default, so packages log unconditionally and pay nothing
// outside the daemon.
type Logger struct {
	s *slog.Logger
}

// LogOptions configures NewLogger.
type LogOptions struct {
	// Level is the minimum level: debug | info | warn | error
	// (default info).
	Level string
	// Format is json (default) or text.
	Format string
}

// ParseLevel maps a level name to its slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (debug|info|warn|error)", s)
}

// NewLogger builds a logger writing structured lines to w. An unknown
// level or format falls back to info/json rather than failing — a
// daemon must not die over a typo'd log flag (the flag parser reports
// it separately).
func NewLogger(w io.Writer, opts LogOptions) *Logger {
	lvl, err := ParseLevel(opts.Level)
	if err != nil {
		lvl = slog.LevelInfo
	}
	hopts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if strings.EqualFold(opts.Format, "text") {
		h = slog.NewTextHandler(w, hopts)
	} else {
		h = slog.NewJSONHandler(w, hopts)
	}
	return &Logger{s: slog.New(h)}
}

func (l *Logger) log(lv slog.Level, msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Log(context.Background(), lv, msg, args...)
}

// Debug logs at debug level.
func (l *Logger) Debug(msg string, args ...any) { l.log(slog.LevelDebug, msg, args...) }

// Info logs at info level.
func (l *Logger) Info(msg string, args ...any) { l.log(slog.LevelInfo, msg, args...) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, args ...any) { l.log(slog.LevelWarn, msg, args...) }

// Error logs at error level.
func (l *Logger) Error(msg string, args ...any) { l.log(slog.LevelError, msg, args...) }
