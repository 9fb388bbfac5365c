package runenv

import (
	"strings"
	"testing"

	"agilepaging/internal/repcache"
	"agilepaging/internal/workload"
)

func TestFormatStreamCacheStats(t *testing.T) {
	info := workload.StreamCacheSnapshot{Hits: 12, Misses: 4, Streams: 4, Bytes: 3 << 20}
	got := formatStreamCacheStats(info)
	if !strings.Contains(got, "12 hits") || !strings.Contains(got, "4 generated") ||
		!strings.Contains(got, "3.0 MiB") {
		t.Errorf("stream cache line = %q", got)
	}
}

func TestFormatReportCacheStats(t *testing.T) {
	info := repcache.Snapshot{
		Hits: 9, Misses: 3, Deduped: 2, Reports: 3,
		DiskHits: 1, DiskMisses: 2, DiskErrors: 1,
	}
	got := formatReportCacheStats(info, false)
	if !strings.Contains(got, "9 hits") || !strings.Contains(got, "3 simulated") ||
		!strings.Contains(got, "2 deduped") {
		t.Errorf("memory line = %q", got)
	}
	if strings.Contains(got, "disk") {
		t.Errorf("disk line present without -report-cache-dir: %q", got)
	}
	got = formatReportCacheStats(info, true)
	if !strings.Contains(got, "report disk cache: 1 loaded, 2 simulated, 1 write errors") {
		t.Errorf("disk line = %q", got)
	}
}
