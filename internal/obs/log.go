// The log/slog bridge. The daemon stack logs through printf-shaped
// `func(string, ...any)` seams (jobd.Config.Logf, WithQueueLog) that tests
// script and -quiet nils out; they are its only logging seams. Logf adapts a
// leveled, component-keyed slog.Logger into one, so the binaries get
// `-log-level` and key=value output while tests pin exact lines.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds the service's text logger at the given level.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// Logf adapts a slog.Logger into the printf-shaped seam the daemon stack
// uses, tagging every line with its component. A nil logger returns nil —
// exactly the disabled shape the seams already understand.
func Logf(l *slog.Logger, component string, level slog.Level) func(string, ...any) {
	if l == nil {
		return nil
	}
	tagged := l.With("component", component)
	return func(format string, args ...any) {
		tagged.Log(context.Background(), level, fmt.Sprintf(format, args...))
	}
}
