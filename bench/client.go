package bench

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/hackkv/hack/internal/api"
)

// Sample is what the client saw of one request. Times are measured
// from the instant the request was due, so a late send counts against
// the system the way a stalled generator would.
type Sample struct {
	// Index is the request's position in its trace section; req is the
	// request itself, joined back on in the benchmark's own process.
	Index int
	req   *Request
	// LagS is how late the request's sender started; TTFTS and JCTS the
	// time to the first token chunk and to the end of the stream.
	LagS, TTFTS, JCTS float64
	// EndS is when the stream ended, in seconds from the phase start.
	EndS float64
	// TokenEndsS holds each token chunk's arrival, from the phase start.
	TokenEndsS []float64
	// Text is the concatenated deltas; Status the HTTP status.
	Text   string
	Status int
	// Err is the transport, HTTP or in-band error, if any.
	Err string
}

// Tokens is the number of token chunks received.
func (s *Sample) Tokens() int { return len(s.TokenEndsS) }

// TPOTS is the time per output token after the first.
func (s *Sample) TPOTS() float64 {
	if s.Tokens() < 2 {
		return 0
	}
	return (s.JCTS - s.TTFTS) / float64(s.Tokens()-1)
}

// client drives one deployment over HTTP.
type client struct {
	url  string
	http *http.Client
}

func newClient(baseURL string) *client {
	return &client{
		url: baseURL + "/v1/completions",
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConns: 1024, MaxIdleConnsPerHost: 1024, DisableCompression: true,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// body renders the request's POST /v1/completions body.
func (r *Request) body() []byte {
	return []byte(fmt.Sprintf(`{"prompt":%q,"max_tokens":%d,"stream":true,"seed":%d}`, r.Text, r.MaxTokens, r.Seed))
}

var (
	sseData  = []byte("data: ")
	sseDone  = []byte("[DONE]")
	sseText  = []byte(`"text":"`)
	sseError = []byte(`{"error":`)
)

// do sends one request and reads its SSE stream to the end. start is
// the phase start and due the instant the request was scheduled for.
func (c *client) do(ctx context.Context, index int, r *Request, start, due time.Time) *Sample {
	s := &Sample{Index: index, LagS: time.Since(due).Seconds()}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(r.body()))
	if err != nil {
		s.Err = err.Error()
		return s
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hreq)
	if err != nil {
		s.Err = err.Error()
		return s
	}
	defer resp.Body.Close()
	s.Status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		s.Err = "HTTP " + resp.Status
		return s
	}
	var text strings.Builder
	done := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, sseData) {
			continue
		}
		line = line[len(sseData):]
		if bytes.Equal(line, sseDone) {
			done = true
			break
		}
		if bytes.HasPrefix(line, sseError) {
			s.Err = "in-band error: " + string(line)
			break
		}
		// Deltas are syllable words and spaces, so the JSON string
		// carries no escapes and ends at the next quote.
		i := bytes.Index(line, sseText)
		if i < 0 {
			continue
		}
		delta := line[i+len(sseText):]
		j := bytes.IndexByte(delta, '"')
		if j <= 0 {
			continue // the final chunk's empty text
		}
		now := time.Now()
		if s.Tokens() == 0 {
			s.TTFTS = now.Sub(due).Seconds()
		}
		s.TokenEndsS = append(s.TokenEndsS, now.Sub(start).Seconds())
		text.Write(delta[:j])
	}
	end := time.Now()
	s.JCTS = end.Sub(due).Seconds()
	s.EndS = end.Sub(start).Seconds()
	s.Text = text.String()
	if s.Err == "" {
		if err := sc.Err(); err != nil {
			s.Err = err.Error()
		} else if !done {
			s.Err = "stream ended without [DONE]"
		}
	}
	return s
}

// IDs decodes the sample's text back to token ids (the tokenizer
// round-trips exactly on its own output).
func (s *Sample) IDs() []int { return api.NewTokenizer(vocab).Encode(s.Text) }
