package xmltree

// The byte tokenizer behind Parse, ParseBytes and StreamParser.
//
// encoding/xml spends most of a parse materializing strings: one per
// name per occurrence, plus per-token buffers. The scanner reads each
// token straight off a byte window — the whole slice for ParseBytes,
// refilled from the reader for Parse and StreamParser — interns names
// (see intern.go) and folds the token into the shared tokenBuilder.
//
// It covers a conservative subset of XML: ASCII text, names without
// ':', no xmlns attributes, the five predefined entities, comments,
// CDATA sections, and a plain XML declaration (version 1.0, UTF-8) at
// offset 0. At the first token outside that subset — or any malformed
// or truncated token — it hands the rest of the input to encoding/xml
// at that token boundary. The decoder is primed with a bare start tag
// for each open element (the subset declares no namespaces, so that is
// all the state the decoder would have built), the primed tags are
// discarded as they come back, and syntax-error lines are shifted by
// the newlines already consumed. Trees and error text are therefore
// exactly what encoding/xml yields when handed the input at byte 0;
// FuzzParseSplitEquivalence pins that for every entry point and read
// size.

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
)

// ParseBytes parses an XML document from an in-memory byte slice. The
// returned tree never aliases data.
func ParseBytes(data []byte, opts ParseOptions) (*Node, error) {
	s := &scanner{b: newTokenBuilder(opts, true), buf: data, srcErr: io.EOF}
	return s.parse()
}

// Window sizes for reader input: small for short documents, growing
// while the reader keeps filling it.
const (
	minWindow = 4 << 10
	maxWindow = 64 << 10
)

// scanner is one parse: a byte window over the input, the builder it
// feeds and, after a hand-off, the decoder that finishes the job.
type scanner struct {
	b       *tokenBuilder
	buf     []byte // the window; buf[pos:] is not yet tokenized
	pos     int
	dropped int       // input bytes before buf[0]
	lines   int       // newlines among them
	src     io.Reader // refills the window; nil once it returned an error
	srcErr  error     // that error; io.EOF on a clean end
	tr      *errTrackReader
	attrs   []Attr       // start-tag scratch
	text    []byte       // scratch for entity-expanded character data
	dec     *xml.Decoder // the fallback, once handed off
	replay  int          // primed start tags the decoder has yet to return
}

// newScanner starts a parse of r into b.
func newScanner(r io.Reader, b *tokenBuilder) *scanner {
	tr := &errTrackReader{r: r}
	return &scanner{b: b, src: tr, tr: tr, buf: make([]byte, 0, minWindow)}
}

// tokState is the outcome of scanning one token.
type tokState uint8

const (
	tokDone tokState = iota // folded into the builder; window advanced
	tokMore                 // the token runs past the window
	tokOff                  // outside the subset or malformed: hand off
)

// parse folds the whole input and returns the document.
func (s *scanner) parse() (*Node, error) {
	for {
		if err := s.next(); err == io.EOF {
			return s.b.finish()
		} else if err != nil {
			return nil, err
		}
	}
}

// next folds one token into the builder. It returns io.EOF once the
// input ended cleanly between tokens.
func (s *scanner) next() error {
	if s.dec != nil {
		return s.decoded()
	}
	for {
		if s.pos < len(s.buf) {
			switch st, err := s.token(); st {
			case tokDone:
				return err
			case tokOff:
				return s.handoff()
			}
		} else if s.atEOF() {
			if s.b.cur == s.b.doc {
				return io.EOF
			}
			return s.handoff() // the decoder words "unexpected EOF"
		}
		if !s.fill() && (s.pos < len(s.buf) || s.srcErr != io.EOF) {
			return s.handoff()
		}
	}
}

// atEOF reports whether the window holds all that is left of the input.
func (s *scanner) atEOF() bool { return s.src == nil && s.srcErr == io.EOF }

// fill reads more input behind the window's unconsumed tail. A token
// that runs past the window is rescanned from its start, so fill reads
// until the tail has at least doubled: rescans then cost O(token)
// however small the reader's chunks. It reports whether any byte came.
func (s *scanner) fill() bool {
	if s.src == nil {
		return false
	}
	full := len(s.buf) == cap(s.buf)
	tail := len(s.buf) - s.pos
	s.lines += bytes.Count(s.buf[:s.pos], []byte{'\n'})
	s.dropped += s.pos
	need := max(tail, 1)
	if size := cap(s.buf); size-tail < need || full && size < maxWindow {
		nb := make([]byte, tail, max(2*size, tail+need))
		copy(nb, s.buf[s.pos:])
		s.buf = nb
	} else {
		s.buf = s.buf[:copy(s.buf, s.buf[s.pos:])]
	}
	s.pos = 0
	got := 0
	for empty := 0; got < need; {
		n, err := s.src.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		got += n
		if err != nil {
			s.src, s.srcErr = nil, err
			break
		}
		if n == 0 {
			if empty++; empty == 100 { // bufio's limit
				s.src, s.srcErr = nil, io.ErrNoProgress
				break
			}
		}
	}
	return got > 0
}

// handoff passes the rest of the input to encoding/xml at the current
// token boundary and folds the decoder's first token.
func (s *scanner) handoff() error {
	var open []*Node
	for n := s.b.cur; n != s.b.doc; n = n.Parent {
		open = append(open, n)
	}
	var prime []byte
	for i := len(open) - 1; i >= 0; i-- {
		prime = append(append(append(prime, '<'), open[i].Name...), '>')
	}
	s.replay = len(open)
	s.lines += bytes.Count(s.buf[:s.pos], []byte{'\n'})
	rest := []io.Reader{bytes.NewReader(prime), bytes.NewReader(s.buf[s.pos:])}
	switch {
	case s.src != nil:
		rest = append(rest, s.src)
	case s.srcErr != io.EOF:
		rest = append(rest, errReader{s.srcErr})
	}
	s.dec = newDecoder(io.MultiReader(rest...))
	s.buf, s.pos = nil, 0
	return s.decoded()
}

// errReader replays the error that ended the window's input.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decoded folds the decoder's next token, discarding the primed start
// tags and placing syntax errors on the line of the whole input.
func (s *scanner) decoded() error {
	for {
		tok, err := s.dec.Token()
		if err == io.EOF {
			return io.EOF
		}
		if err != nil {
			if se, ok := err.(*xml.SyntaxError); ok {
				err = &xml.SyntaxError{Msg: se.Msg, Line: se.Line + s.lines}
			}
			return parseError(err, s.tr)
		}
		if s.replay > 0 {
			s.replay--
			continue
		}
		return s.b.token(tok)
	}
}

// token scans the token at the window start and folds it.
func (s *scanner) token() (tokState, error) {
	w := s.buf[s.pos:]
	if w[0] != '<' {
		data, end, st := s.chardata(w, 0, '<')
		if st != tokDone {
			return st, nil
		}
		s.pos += end
		return tokDone, s.b.text(data)
	}
	if len(w) < 2 {
		return tokMore, nil
	}
	switch w[1] {
	case '/':
		return s.endTag(w)
	case '!':
		return s.markup(w)
	case '?':
		if s.pos == 0 && s.dropped == 0 {
			return s.decl(w)
		}
		return tokOff, nil // processing instructions
	}
	return s.startTag(w)
}

// startTag scans "<name attr='v' ...>" or its self-closing form.
func (s *scanner) startTag(w []byte) (tokState, error) {
	nameEnd, st := scanName(w, 1)
	if st != tokDone {
		return st, nil
	}
	attrs := s.attrs[:0]
	i := nameEnd
	for {
		i = skipSpace(w, i)
		if i == len(w) {
			return tokMore, nil
		}
		switch w[i] {
		case '>':
			return s.openTag(w[1:nameEnd], attrs, false, i+1)
		case '/':
			if i+1 == len(w) {
				return tokMore, nil
			}
			if w[i+1] != '>' {
				return tokOff, nil
			}
			return s.openTag(w[1:nameEnd], attrs, true, i+2)
		}
		an := i
		if i, st = scanName(w, i); st != tokDone {
			return st, nil
		}
		name := w[an:i]
		if string(name) == "xmlns" {
			return tokOff, nil // a default namespace needs resolution
		}
		if i = skipSpace(w, i); i == len(w) {
			return tokMore, nil
		}
		if w[i] != '=' {
			return tokOff, nil
		}
		if i = skipSpace(w, i+1); i == len(w) {
			return tokMore, nil
		}
		q := w[i]
		if q != '"' && q != '\'' {
			return tokOff, nil
		}
		val, end, st := s.chardata(w, i+1, q)
		if st != tokDone {
			return st, nil
		}
		attrs = append(attrs, Attr{Name: InternBytes(name), Value: string(val)})
		i = end + 1
	}
}

// openTag folds a scanned start tag ending at w[end-1].
func (s *scanner) openTag(name []byte, attrs []Attr, selfClose bool, end int) (tokState, error) {
	s.pos += end
	el := s.b.node()
	el.Kind = ElementNode
	el.Name = InternBytes(name)
	if len(attrs) > 0 {
		el.Attrs = append([]Attr(nil), attrs...)
	}
	s.attrs = attrs[:0]
	if err := s.b.open(el); err != nil {
		return tokDone, err
	}
	if err := s.b.enter(el); err != nil {
		return tokDone, err
	}
	if selfClose {
		s.b.end()
	}
	return tokDone, nil
}

// endTag scans "</name>", which must close the element under the
// cursor; a mismatch is the decoder's to report.
func (s *scanner) endTag(w []byte) (tokState, error) {
	nameEnd, st := scanName(w, 2)
	if st != tokDone {
		return st, nil
	}
	i := skipSpace(w, nameEnd)
	if i == len(w) {
		return tokMore, nil
	}
	if w[i] != '>' || s.b.cur == s.b.doc || s.b.cur.Name != string(w[2:nameEnd]) {
		return tokOff, nil
	}
	s.pos += i + 1
	s.b.end()
	return tokDone, nil
}

// markup scans a comment or a CDATA section; DOCTYPE and other
// directives are the decoder's.
func (s *scanner) markup(w []byte) (tokState, error) {
	const comment, cdata = "<!--", "<![CDATA["
	switch {
	case bytes.HasPrefix(w, []byte(comment)):
		// encoding/xml rejects an interior "--" not followed by '>', so
		// the comment must end at its first "--".
		end := bytes.Index(w[4:], []byte("--"))
		if end < 0 || 4+end+2 >= len(w) {
			return tokMore, nil
		}
		body := w[4 : 4+end]
		if w[4+end+2] != '>' || !plainMarkup(body) {
			return tokOff, nil
		}
		s.pos += 4 + end + 3
		s.b.comment(body)
		return tokDone, nil
	case bytes.HasPrefix(w, []byte(cdata)):
		end := bytes.Index(w[9:], []byte("]]>"))
		if end < 0 {
			return tokMore, nil
		}
		body := w[9 : 9+end]
		if !plainMarkup(body) {
			return tokOff, nil // includes CR, which the decoder rewrites
		}
		s.pos += 9 + end + 3
		return tokDone, s.b.text(body)
	case len(w) < len(cdata) && (strings.HasPrefix(comment, string(w)) || strings.HasPrefix(cdata, string(w))):
		return tokMore, nil
	}
	return tokOff, nil
}

// decl consumes an XML declaration at offset 0 when it is plainly
// acceptable: whitespace-separated pseudo-attributes version (exactly
// 1.0, the only version encoding/xml takes), encoding (UTF-8) and
// standalone, each a simple quoted token. The builder drops
// declarations, so nothing is folded; any other form is the decoder's
// to judge.
func (s *scanner) decl(w []byte) (tokState, error) {
	end := bytes.Index(w, []byte("?>"))
	if end < 0 {
		return tokMore, nil
	}
	body, ok := bytes.CutPrefix(w[:end], []byte("<?xml"))
	if !ok || len(body) > 0 && skipSpace(body, 0) == 0 {
		return tokOff, nil // another target, such as "xmlfoo"
	}
	for _, f := range bytes.Fields(body) {
		name, val, _ := bytes.Cut(f, []byte("="))
		n := len(val)
		if n < 2 || val[0] != '"' && val[0] != '\'' || val[n-1] != val[0] || !declToken(val[1:n-1]) {
			return tokOff, nil
		}
		v := string(val[1 : n-1])
		switch string(name) {
		case "version":
			if v != "1.0" {
				return tokOff, nil
			}
		case "encoding":
			if !strings.EqualFold(v, "utf-8") {
				return tokOff, nil
			}
		case "standalone":
		default:
			return tokOff, nil
		}
	}
	s.pos += end + 2
	return tokDone, nil
}

// declToken reports whether v is a plain declaration value: nothing,
// such as a quote, '=' or space, that could sway encoding/xml's own
// lookup of version and encoding.
func declToken(v []byte) bool {
	for _, c := range v {
		if !(c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// scanName scans an XML name at w[i], restricted to the ASCII name
// characters encoding/xml accepts minus ':', which would engage
// namespace resolution. It returns the index just past the name.
func scanName(w []byte, i int) (int, tokState) {
	if i == len(w) {
		return i, tokMore
	}
	if c := w[i]; !(c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c == '_') {
		return i, tokOff
	}
	for i++; i < len(w); i++ {
		c := w[i]
		if c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '-' || c == '.' {
			continue
		}
		if c == ':' || c >= 0x80 {
			return i, tokOff
		}
		return i, tokDone
	}
	return i, tokMore // the name may go on past the window
}

// skipSpace returns the index of the first non-whitespace byte at or
// after w[i].
func skipSpace(w []byte, i int) int {
	for i < len(w) && (w[i] == ' ' || w[i] == '\t' || w[i] == '\n' || w[i] == '\r') {
		i++
	}
	return i
}

// Byte classes for character data: plain bytes copy through unchanged;
// everything else needs a look (markup, entities, CR, a possible "]]>",
// the closing quote, or a byte outside the ASCII subset).
var plainText, plainAttr = func() (text, attr [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		text[c] = true
	}
	text['\t'], text['\n'] = true, true
	text['<'], text['&'], text['>'] = false, false, false
	attr = text
	attr['"'], attr['\''] = false, false
	return
}()

// plainMarkup reports whether a comment or CDATA body stays inside the
// subset: printable ASCII, tab and newline.
func plainMarkup(b []byte) bool {
	for _, c := range b {
		if !plainText[c] && c != '<' && c != '&' && c != '>' {
			return false
		}
	}
	return true
}

// chardata scans character data from w[i] up to the stop byte ('<' for
// element content, the quote for an attribute value), expanding the
// five predefined entities and rewriting \r\n and \r to \n as
// encoding/xml does. It returns the data (aliasing w when nothing was
// rewritten) and the index of the stop byte. Numeric and undeclared
// references, "]]>", '<' inside a value and bytes outside the subset
// are tokOff. Element content may end with the input; a value may not.
func (s *scanner) chardata(w []byte, i int, stop byte) ([]byte, int, tokState) {
	plain := &plainText
	if stop != '<' {
		plain = &plainAttr
	}
	start := i
	var buf []byte
	rewritten := false
	for ; i < len(w); i++ {
		c := w[i]
		if plain[c] {
			if rewritten {
				buf = append(buf, c)
			}
			continue
		}
		switch c {
		case stop:
			if rewritten {
				s.text = buf
				return buf, i, tokDone
			}
			return w[start:i], i, tokDone
		case '>':
			if i-start >= 2 && w[i-1] == ']' && w[i-2] == ']' {
				return nil, i, tokOff // unescaped "]]>"
			}
		case '"', '\'':
			// the other quote inside a value
		case '&', '\r':
			if !rewritten {
				buf = append(s.text[:0], w[start:i]...)
				rewritten = true
			}
			if c == '\r' {
				buf = append(buf, '\n')
				if i+1 < len(w) && w[i+1] == '\n' {
					i++
				}
				continue
			}
			r, n, st := entity(w[i:])
			if st != tokDone {
				return nil, i, st
			}
			buf = append(buf, r)
			i += n - 1
			continue
		default:
			return nil, i, tokOff // '<' in a value, or outside the subset
		}
		if rewritten {
			buf = append(buf, c)
		}
	}
	if stop != '<' || !s.atEOF() {
		return nil, i, tokMore
	}
	if rewritten {
		s.text = buf
		return buf, i, tokDone
	}
	return w[start:i], i, tokDone
}

// entity decodes the predefined entity reference at the start of w,
// returning the character and the reference's length.
func entity(w []byte) (byte, int, tokState) {
	semi := bytes.IndexByte(w[1:min(len(w), 6)], ';')
	if semi < 0 {
		if len(w) < 6 {
			return 0, 0, tokMore
		}
		return 0, 0, tokOff
	}
	var r byte
	switch string(w[1 : 1+semi]) {
	case "amp":
		r = '&'
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return 0, 0, tokOff // numeric and undeclared references
	}
	return r, semi + 2, tokDone
}
