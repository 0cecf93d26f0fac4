package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

type planVerdict struct {
	Owner        string `json:"owner"`
	Digest       string `json:"digest"`
	DocLen       int    `json:"doc_len"`
	PayloadBits  int    `json:"payload_bits"`
	Sites        int    `json:"sites"`
	CarrierUnits int    `json:"carrier_units"`
}

// compilePlan drives POST /v1/deliver/plan and returns the verdict.
func compilePlan(t *testing.T, base, owner string, doc []byte) planVerdict {
	t.Helper()
	code, body, _ := doAs(t, "key-"+owner, "POST", base+"/v1/deliver/plan?owner="+owner+"&doc=catalog.xml", doc)
	if code != http.StatusOK {
		t.Fatalf("compile plan: %d %s", code, body)
	}
	var v planVerdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("plan verdict: %v\n%s", err, body)
	}
	return v
}

// deliverCopy drives POST /v1/deliver and returns the spliced copy.
func deliverCopy(t *testing.T, base, owner, recipient, query string, body []byte) ([]byte, http.Header) {
	t.Helper()
	code, out, hdr := doAs(t, "key-"+owner, "POST",
		base+"/v1/deliver?owner="+owner+"&recipient="+recipient+query, body)
	if code != http.StatusOK {
		t.Fatalf("deliver %s: %d %s", recipient, code, out)
	}
	return out, hdr
}

// TestServerDeliverEndToEnd is the acceptance flow of the delivery fast
// path: compile one plan, splice two recipients from it with empty
// bodies, prove the splice byte-identical to a full /v1/fingerprint of
// the same document, and trace a delivered copy back to its recipient.
func TestServerDeliverEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	orig := pubsXML(t, 120, 9)

	pv := compilePlan(t, ts.URL, "acme", orig)
	if pv.Digest == "" || pv.Sites == 0 || pv.CarrierUnits == 0 {
		t.Fatalf("degenerate plan: %+v", pv)
	}

	// Splice two recipients from the stored plan — no body at all.
	r1Copy, hdr := deliverCopy(t, ts.URL, "acme", "r1", "&digest="+pv.Digest, nil)
	r2Copy, _ := deliverCopy(t, ts.URL, "acme", "r2", "&digest="+pv.Digest, nil)
	if bytes.Equal(r1Copy, r2Copy) {
		t.Fatal("spliced copies are identical — no per-recipient code")
	}
	if !strings.HasPrefix(hdr.Get("X-Wmxml-Receipt"), "d-") {
		t.Errorf("deliver receipt id %q does not carry the d- prefix", hdr.Get("X-Wmxml-Receipt"))
	}
	if hdr.Get("X-Wmxml-Recipient") != "r1" || hdr.Get("X-Wmxml-Digest") != pv.Digest {
		t.Errorf("deliver headers: recipient=%q digest=%q", hdr.Get("X-Wmxml-Recipient"), hdr.Get("X-Wmxml-Digest"))
	}

	// The splice must be byte-identical to the full parse+embed path.
	fpCopy := fingerprintCopy(t, ts.URL, "acme", "r1", orig)
	if !bytes.Equal(r1Copy, fpCopy) {
		t.Fatal("spliced r1 copy differs from /v1/fingerprint r1 copy")
	}

	// A delivered copy traces to its recipient.
	v := traceDoc(t, ts.URL, "acme", r2Copy, "")
	if len(v.Accused) != 1 || v.Accused[0] != "r2" {
		t.Fatalf("trace of spliced copy accused %v, want [r2]", v.Accused)
	}

	// Delivery registered the recipients and receipts.
	_, rb, _ := doAs(t, "key-acme", "GET", ts.URL+"/v1/owners/acme/recipients", nil)
	if !strings.Contains(string(rb), `"r1"`) || !strings.Contains(string(rb), `"r2"`) {
		t.Fatalf("delivered recipients not registered: %s", rb)
	}
	var receipts struct {
		Receipts []struct {
			ID        string `json:"id"`
			Recipient string `json:"recipient"`
		} `json:"receipts"`
	}
	_, recb, _ := doAs(t, "key-acme", "GET", ts.URL+"/v1/owners/acme/receipts", nil)
	if err := json.Unmarshal(recb, &receipts); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, rec := range receipts.Receipts {
		if strings.HasPrefix(rec.ID, "d-") && (rec.Recipient == "r1" || rec.Recipient == "r2") {
			found++
		}
	}
	if found != 2 {
		t.Errorf("want 2 d- receipts for r1/r2, found %d in %s", found, recb)
	}

	// register=0 splices without leaving a trail.
	deliverCopy(t, ts.URL, "acme", "ghost", "&digest="+pv.Digest+"&register=0", nil)
	_, rb2, _ := doAs(t, "key-acme", "GET", ts.URL+"/v1/owners/acme/recipients", nil)
	if strings.Contains(string(rb2), "ghost") {
		t.Error("register=0 delivery registered the recipient anyway")
	}

	// Counters moved.
	_, mb, _ := do(t, "GET", ts.URL+"/metrics", nil)
	met := string(mb)
	for _, want := range []string{
		"wmxmld_delivers_total 3",
		"wmxmld_deliver_plan_compiles_total 1",
		"wmxmld_deliver_plan_hits_total 3",
	} {
		if !strings.Contains(met, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestServerDeliverBodyPath: posting the document itself compiles on
// first delivery and splices from the stored plan on the second —
// including across a server restart over the same registry file, where
// the plan survives on disk.
func TestServerDeliverBodyPath(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	orig := pubsXML(t, 60, 10)

	c1, h1 := deliverCopy(t, ts.URL, "acme", "r1", "", orig)
	c2, _ := deliverCopy(t, ts.URL, "acme", "r2", "", orig)
	if bytes.Equal(c1, c2) {
		t.Fatal("body-path copies identical")
	}
	// Same recipient, same doc: identical bytes whichever path serves it.
	c1b, _ := deliverCopy(t, ts.URL, "acme", "r1", "&digest="+h1.Get("X-Wmxml-Digest"), nil)
	if !bytes.Equal(c1, c1b) {
		t.Fatal("digest-path copy differs from body-path copy")
	}
	_, mb, _ := do(t, "GET", ts.URL+"/metrics", nil)
	met := string(mb)
	if !strings.Contains(met, "wmxmld_deliver_plan_compiles_total 1") {
		t.Errorf("body path should compile exactly once:\n%s", met)
	}
	if !strings.Contains(met, "wmxmld_deliver_plan_hits_total 2") {
		t.Errorf("second body delivery and digest delivery should both hit the plan:\n%s", met)
	}
}

// TestServerDeliverStream: mode=stream splices the canonical body in
// constant memory to the same bytes as the in-memory path, and a
// mutated body aborts the response instead of delivering a clean wrong
// copy.
func TestServerDeliverStream(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	orig := pubsXML(t, 80, 3)

	pv := compilePlan(t, ts.URL, "acme", orig)
	want, _ := deliverCopy(t, ts.URL, "acme", "r1", "&digest="+pv.Digest, nil)

	got, _ := deliverCopy(t, ts.URL, "acme", "r1", "&digest="+pv.Digest+"&mode=stream", orig)
	if !bytes.Equal(got, want) {
		t.Fatal("streamed splice differs from in-memory splice")
	}

	// Stream of a tampered original: the digest check fails after the
	// headers are gone, so the server must kill the connection — the
	// client sees a transport error or a truncated body, never a clean
	// 200-complete wrong copy.
	mutated := append([]byte{}, orig...)
	mutated[len(mutated)/2] ^= 0x01
	req, err := http.NewRequest("POST",
		ts.URL+"/v1/deliver?owner=acme&recipient=r1&digest="+pv.Digest+"&mode=stream&register=0",
		bytes.NewReader(mutated))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer key-acme")
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		defer resp.Body.Close()
		var sink bytes.Buffer
		if _, rerr := sink.ReadFrom(resp.Body); rerr == nil && sink.Len() == len(want) {
			t.Fatal("tampered stream delivered a complete copy")
		}
	}
}

// TestServerDeliverStreamBodyOverCap: a streamed delivery caps its
// body at MaxStreamBytes like the other stream routes. A body of
// exactly the cap delivers; one byte more is a 413, counted in
// wmxmld_body_too_large_total, and since the status line is already out
// the copy is cut short instead of completing.
func TestServerDeliverStreamBodyOverCap(t *testing.T) {
	orig := pubsXML(t, 80, 3)
	s, ts := newTestServer(t, Options{MaxStreamBytes: int64(len(orig))})
	registerOwner(t, ts.URL, "acme")
	pv := compilePlan(t, ts.URL, "acme", orig)
	route := "&digest=" + pv.Digest + "&mode=stream&register=0"
	want, _ := deliverCopy(t, ts.URL, "acme", "r1", "&digest="+pv.Digest+"&register=0", nil)
	if got, _ := deliverCopy(t, ts.URL, "acme", "r1", route, orig); !bytes.Equal(got, want) {
		t.Fatal("a body of exactly MaxStreamBytes did not deliver the copy")
	}

	req, err := http.NewRequest("POST", ts.URL+"/v1/deliver?owner=acme&recipient=r1"+route,
		bytes.NewReader(append(append([]byte{}, orig...), "\n<!-- trailing -->\n"...)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer key-acme")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		var sink bytes.Buffer
		_, rerr := sink.ReadFrom(resp.Body)
		resp.Body.Close()
		if rerr == nil && bytes.Equal(sink.Bytes(), want) {
			t.Fatal("an over-cap stream delivered a complete copy")
		}
	}
	if n := s.met.tooLarge.Value(); n != 1 {
		t.Errorf("wmxmld_body_too_large_total = %d, want 1", n)
	}
	_, mb, _ := do(t, "GET", ts.URL+"/metrics", nil)
	if want := `wmxmld_requests_total{route="/v1/deliver",code="413"} 1`; !strings.Contains(string(mb), want) {
		t.Errorf("metrics lack %s", want)
	}
}

func TestServerDeliverErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	registerOwner(t, ts.URL, "acme")
	doc := pubsXML(t, 20, 4)

	if code, _, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/deliver?owner=acme", doc); code != http.StatusBadRequest {
		t.Errorf("deliver without recipient = %d, want 400", code)
	}
	if code, _, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/deliver?owner=acme&recipient=r1&digest="+strings.Repeat("0", 64), nil); code != http.StatusNotFound {
		t.Errorf("deliver with unknown digest = %d, want 404", code)
	}
	if code, _, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/deliver?owner=acme&recipient=r1&mode=stream", doc); code != http.StatusBadRequest {
		t.Errorf("stream deliver without digest = %d, want 400", code)
	}
	if code, _, _ := doAs(t, "wrong", "POST", ts.URL+"/v1/deliver/plan?owner=acme", doc); code != http.StatusUnauthorized {
		t.Errorf("plan compile with wrong key = %d, want 401", code)
	}
	if code, _, _ := doAs(t, "wrong", "POST", ts.URL+"/v1/deliver?owner=acme&recipient=r1", doc); code != http.StatusUnauthorized {
		t.Errorf("deliver with wrong key = %d, want 401", code)
	}
	if code, _, _ := doAs(t, "key-acme", "POST", ts.URL+"/v1/deliver/plan?owner=acme", []byte("<not xml")); code != http.StatusBadRequest {
		t.Errorf("plan compile of malformed XML = %d, want 400", code)
	}
}
