package repair

import (
	"bytes"
	"os"
	"testing"
)

// TestVersion1ReportRoundTrips reads testdata/report-v1.json, `causalfl explain -app causalbench
// -fault B -quick -max-set 2 -top 3 -json`
// as the first report version wrote it, and requires today's codec to
// read it and write it back byte for byte.
func TestVersion1ReportRoundTrips(t *testing.T) {
	blob, err := os.ReadFile("testdata/report-v1.json")
	if err != nil {
		t.Fatal(err)
	}
	report, err := ReadReport(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := report.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again.Bytes()) {
		t.Errorf("version-1 report does not re-encode byte for byte:\n%s", again.Bytes())
	}
}
