//! Prime number utilities for the Richtmyer lattice (√prime generating
//! vector).

/// Return the first `n` prime numbers.
///
/// Uses a simple sieve with an upper-bound estimate from the prime counting
/// function; intended for n up to a few hundred thousand (the MVN dimension),
/// where it runs in milliseconds.
pub fn first_primes(n: usize) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    // Upper bound for the n-th prime: n (ln n + ln ln n) for n >= 6.
    let nf = n as f64;
    let bound = if n < 6 {
        14
    } else {
        (nf * (nf.ln() + nf.ln().ln()) * 1.2).ceil() as usize
    };
    let mut sieve = vec![true; bound + 1];
    sieve[0] = false;
    if bound >= 1 {
        sieve[1] = false;
    }
    let mut i = 2usize;
    while i * i <= bound {
        if sieve[i] {
            let mut j = i * i;
            while j <= bound {
                sieve[j] = false;
                j += i;
            }
        }
        i += 1;
    }
    let mut primes = Vec::with_capacity(n);
    for (p, &is_prime) in sieve.iter().enumerate() {
        if is_prime {
            primes.push(p as u64);
            if primes.len() == n {
                break;
            }
        }
    }
    assert_eq!(primes.len(), n, "prime bound estimate too small for n={n}");
    primes
}

/// `true` if `x` is prime (trial division; used only in tests and assertions).
pub fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    if x.is_multiple_of(2) {
        return x == 2;
    }
    let mut d = 3u64;
    while d * d <= x {
        if x.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_few_primes_are_correct() {
        assert_eq!(first_primes(10), vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
        assert!(first_primes(0).is_empty());
        assert_eq!(first_primes(1), vec![2]);
    }

    #[test]
    fn thousandth_prime_is_7919() {
        let p = first_primes(1000);
        assert_eq!(p[999], 7919);
    }

    #[test]
    fn all_returned_values_are_prime_and_increasing() {
        let p = first_primes(500);
        for w in p.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &x in &p {
            assert!(is_prime(x), "{x} not prime");
        }
    }

    #[test]
    fn large_request_works() {
        let p = first_primes(50_000);
        assert_eq!(p.len(), 50_000);
        assert_eq!(p[9999], 104_729); // the 10,000th prime
    }

    #[test]
    fn is_prime_edge_cases() {
        assert!(!is_prime(0));
        assert!(!is_prime(1));
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(4));
        assert!(is_prime(97));
        assert!(!is_prime(91)); // 7 * 13
    }
}
