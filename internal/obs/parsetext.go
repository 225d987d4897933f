package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseText parses Prometheus text exposition into a flat map keyed by the
// full sample name including its label set (exactly as rendered, e.g.
// `jobs_total{task="edcs"}`). Comment and blank lines are skipped; a
// malformed sample line is an error. It is the parser behind coreset load
// -scrape and the CI metrics validator, and deliberately handles only the
// subset WriteTo emits.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is everything after the last space; label values can
		// never contain a raw space... but help/label escaping keeps spaces,
		// so split at the last space instead of the first.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("obs: malformed metric line %q", line)
		}
		name, valStr := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: metric %q has non-numeric value %q", name, valStr)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
