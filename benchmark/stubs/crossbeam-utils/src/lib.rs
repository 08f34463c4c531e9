//! Empty stand-in: `supmr` lists `crossbeam-utils` as a dependency but
//! calls nothing from it.
